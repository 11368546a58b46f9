"""Call-site spans and counters for the traced benchmark run.

The traced run does not reimplement the pipeline. It replaces library
functions at the module attributes the program calls them through with thin
wrappers that record a span, and for some a deterministic count, around the
real call. Callers import functions by name (``from .detector_bank import
apply_dead_time``), so a function is wrapped in the namespace of the module
that calls it, looked up through ``sys.modules``: ``bunchsim/__init__.py``
rebinds the attribute ``bunchsim.simulate`` to the function of that name.

Spans stay in memory; the operation child returns them with its result and
run.py writes them out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

import numpy as np

COUNT_SPAN = "trace.count"


class Tracer:
    """Spans (name, start, end, parent, operation id) and named counts."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "cpu_start": time.process_time(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            record["cpu_end"] = time.process_time()
            self._stack.pop()

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# --- counters, one per call site that has work to count ---------------------
# Each runs inside a COUNT_SPAN child span, so its cost is charged to tracing
# and not to the layer it counts.


def _count_chunk(t, args, kwargs, result):
    _, n, *_ = result
    t.add("slots", np.size(n))
    t.add("occupied", np.count_nonzero(n))


def _count_fallback(t, args, kwargs, result):
    t.add("fallback_slots", result)


def _count_split(t, args, kwargs, result):
    t.add("occupied_detector_slots", np.count_nonzero(result))


def _count_detect(t, args, kwargs, result):
    for clicks in result.values():
        t.add("candidate_clicks", clicks.size)
        t.add("held_click_bytes", clicks.nbytes)


def _count_dark(t, args, kwargs, result):
    t.add("dark_clicks", sum(v.size for v in result.values()))


def _count_dead_time(t, args, kwargs, result):
    times = np.asarray(_arg(args, kwargs, 0, "times"))
    dead_time = _arg(args, kwargs, 1, "dead_time_ps")
    t.add("merged_events", times.size)
    t.add("registered", np.size(result))
    t.add("short_gaps", np.count_nonzero(np.diff(times) < dead_time))


def _count_accumulate(t, args, kwargs, result):
    streams = _arg(args, kwargs, 0, "streams")
    t.add("events_in", sum(np.size(s) for s in streams.values()))
    t.add("tally_singles", sum(result.singles.values()))
    t.add("tally_pairs", sum(result.pairs.values()))
    t.add("tally_triples", sum(result.triples.values()))


def _count_simulated_accumulate(t, args, kwargs, result):
    _count_accumulate(t, args, kwargs, result)
    streams = _arg(args, kwargs, 0, "streams")
    t.add("final_stream_events", sum(np.size(s) for s in streams.values()))


def _count_pairs(t, args, kwargs, result):
    t.add("pairs_found", sum(result.values()))


def _count_triples(t, args, kwargs, result):
    t.add("triples_found", sum(result.values()))


def _count_write(t, args, kwargs, result):
    t.add("event_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


# (calling module, attribute, span name "<layer>.<function>", counter)
CALL_SITES = (
    ("bunchsim.cli_harness", "main", "cli_harness.main", None),
    ("bunchsim.cli_harness", "parse_config", "cli_harness.parse_config", None),
    ("bunchsim.cli_harness", "run_experiment", "cli_harness.run_experiment", None),
    ("bunchsim.cli_harness", "compare_models", "cli_harness.compare_models", None),
    ("bunchsim.cli_harness", "tally_to_csv", "cli_harness.tally_to_csv", None),
    ("bunchsim.cli_harness", "tally_to_json", "cli_harness.tally_to_json", None),
    ("bunchsim.cli_harness", "analysis_csv", "cli_harness.analysis_csv", None),
    ("bunchsim.cli_harness", "comparison_csv", "cli_harness.comparison_csv", None),
    ("bunchsim.cli_harness", "calibrate", "statistics.calibrate", None),
    ("bunchsim.cli_harness", "g2_zero", "statistics.g2_zero", None),
    ("bunchsim.cli_harness", "equal_ratio_chisquare", "statistics.equal_ratio_chisquare", None),
    ("bunchsim.cli_harness", "simulate_streams", "simulate.simulate_streams", None),
    ("bunchsim.cli_harness", "write_events", "detector_bank.write_events", _count_write),
    ("bunchsim.cli_harness", "accumulate", "coincidence_unit.accumulate", _count_simulated_accumulate),
    ("bunchsim.simulate", "chunk_arrays", "photon_source.chunk_arrays", _count_chunk),
    ("bunchsim.simulate", "route_counts", "routing_models.route_counts", None),
    ("bunchsim.simulate", "phase_basis_fallback_count", "routing_models.phase_basis_fallback_count", _count_fallback),
    ("bunchsim.simulate", "split_counts", "detector_bank.split_counts", _count_split),
    ("bunchsim.simulate", "detect_counts", "detector_bank.detect_counts", _count_detect),
    ("bunchsim.simulate", "dark_events", "detector_bank.dark_events", _count_dark),
    ("bunchsim.simulate", "apply_dead_time", "detector_bank.apply_dead_time", _count_dead_time),
    ("bunchsim.coincidence_unit", "count_pairs", "coincidence_unit.count_pairs", _count_pairs),
    ("bunchsim.coincidence_unit", "count_triples", "coincidence_unit.count_triples", _count_triples),
    # called by the benchmark itself for the replay
    ("bunchsim.coincidence_unit", "accumulate", "coincidence_unit.accumulate", _count_accumulate),
    ("bunchsim.detector_bank", "read_events", "detector_bank.read_events", None),
)


def _wrap(tracer: Tracer, module, attr: str, name: str, counter) -> None:
    original = getattr(module, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = original(*args, **kwargs)
            if counter is not None:
                with tracer.span(COUNT_SPAN):
                    try:
                        counter(tracer, args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                        tracer.absent.append(f"count:{name}")
        return result

    setattr(module, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap every call site that exists; record the others as absent."""
    for module_name, attr, name, counter in CALL_SITES:
        module = sys.modules.get(module_name)
        if module is None or not callable(getattr(module, attr, None)):
            tracer.absent.append(f"{module_name}.{attr}")
            continue
        _wrap(tracer, module, attr, name, counter)
        tracer.installed.add(name)
