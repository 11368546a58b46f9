"""bunchsim benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs in its own child interpreter (op.py) with one BLAS/OpenMP
thread, ``--quiet`` and a fresh output directory under ``.perfbench/``. The
parent keeps starting operations until S seconds have passed and at least
MIN_OPS have run, checks every output, and prints a summary followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones of METRICS.md, measured by alternating untraced operations with
traced ones whose library calls are wrapped at their call sites (tracer.py).
Spans and the run's context are written to ``.perfbench/`` when it ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

MIN_OPS = 3  # untraced operations per measuring run
MIN_TRACED_PAIRS = 2  # (untraced, traced) pairs per traced run
SETUP_SAMPLES = 5  # fresh-interpreter set-ups per measuring run, medianed
RUN_LIMIT_S = 160.0  # no operation starts that could end after this

END_TO_END_UNITS = {
    "wall_s": "s",
    "slots_per_s": "slots/s",
    "clicks_per_s": "clicks/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# per-layer busy time = summed self time of the spans named here
BUSY_SPANS = {
    "photon_source.busy_s": ("photon_source.chunk_arrays",),
    "routing_models.busy_s": ("routing_models.route_counts", "routing_models.phase_basis_fallback_count"),
    "detector_bank.detect_busy_s": ("detector_bank.split_counts", "detector_bank.detect_counts"),
    "detector_bank.deadtime_busy_s": ("detector_bank.dark_events", "detector_bank.apply_dead_time"),
    "detector_bank.write_s": ("detector_bank.write_events",),
    "detector_bank.read_s": ("detector_bank.read_events",),
    "coincidence_unit.pairs_busy_s": ("coincidence_unit.count_pairs",),
    "coincidence_unit.triples_busy_s": ("coincidence_unit.count_triples",),
    "coincidence_unit.self_s": ("coincidence_unit.accumulate",),
    "simulate.self_s": ("simulate.simulate_streams",),
    "statistics.busy_s": ("statistics.calibrate", "statistics.g2_zero", "statistics.equal_ratio_chisquare"),
    "cli_harness.import_s": ("cli_harness.import",),
    "cli_harness.config_s": ("cli_harness.parse_config",),
    "cli_harness.report_s": (
        "cli_harness.main",
        "cli_harness.run_experiment",
        "cli_harness.compare_models",
        "cli_harness.tally_to_csv",
        "cli_harness.tally_to_json",
        "cli_harness.analysis_csv",
        "cli_harness.comparison_csv",
    ),
}

# counts recorded by tracer.py -> the span whose wrapper records them
COUNT_SOURCES = {
    "slots": "photon_source.chunk_arrays",
    "occupied": "photon_source.chunk_arrays",
    "fallback_slots": "routing_models.phase_basis_fallback_count",
    "occupied_detector_slots": "detector_bank.split_counts",
    "candidate_clicks": "detector_bank.detect_counts",
    "held_click_bytes": "detector_bank.detect_counts",
    "dark_clicks": "detector_bank.dark_events",
    "merged_events": "detector_bank.apply_dead_time",
    "registered": "detector_bank.apply_dead_time",
    "short_gaps": "detector_bank.apply_dead_time",
    "event_bytes": "detector_bank.write_events",
    "events_in": "coincidence_unit.accumulate",
    "final_stream_events": "coincidence_unit.accumulate",
    "tally_singles": "coincidence_unit.accumulate",
    "tally_pairs": "coincidence_unit.accumulate",
    "tally_triples": "coincidence_unit.accumulate",
    "pairs_found": "coincidence_unit.count_pairs",
    "triples_found": "coincidence_unit.count_triples",
}

# per-layer metric -> (unit, formula over busy times and counts); a formula
# that needs a busy time or count no call site provided marks the metric absent
PER_LAYER: dict[str, tuple[str, Callable]] = {
    "photon_source.busy_s": ("s", lambda b, c: b["photon_source.busy_s"]),
    "photon_source.ns_per_slot": ("ns", lambda b, c: 1e9 * b["photon_source.busy_s"] / c["slots"]),
    "photon_source.slots": ("slots", lambda b, c: c["slots"]),
    "photon_source.occupied": ("slots", lambda b, c: c["occupied"]),
    "photon_source.occupied_frac": ("frac", lambda b, c: c["occupied"] / c["slots"]),
    "routing_models.busy_s": ("s", lambda b, c: b["routing_models.busy_s"]),
    "routing_models.fallback_slots": ("slots", lambda b, c: c["fallback_slots"]),
    "detector_bank.detect_busy_s": ("s", lambda b, c: b["detector_bank.detect_busy_s"]),
    "detector_bank.candidate_clicks": ("clicks", lambda b, c: c["candidate_clicks"]),
    "detector_bank.fire_frac": ("frac", lambda b, c: c["candidate_clicks"] / c["occupied_detector_slots"]),
    "detector_bank.deadtime_busy_s": ("s", lambda b, c: b["detector_bank.deadtime_busy_s"]),
    "detector_bank.dark_clicks": ("clicks", lambda b, c: c["dark_clicks"]),
    "detector_bank.deadtime_suppressed": ("clicks", lambda b, c: c["merged_events"] - c["registered"]),
    "detector_bank.short_gap_frac": ("frac", lambda b, c: c["short_gaps"] / c["merged_events"]),
    "detector_bank.cut_clicks": ("clicks", lambda b, c: c["registered"] - c["final_stream_events"]),
    "detector_bank.held_click_bytes": ("bytes", lambda b, c: c["held_click_bytes"]),
    "detector_bank.write_s": ("s", lambda b, c: b["detector_bank.write_s"]),
    "detector_bank.read_s": ("s", lambda b, c: b["detector_bank.read_s"]),
    "detector_bank.event_bytes": ("bytes", lambda b, c: c["event_bytes"]),
    "coincidence_unit.pairs_busy_s": ("s", lambda b, c: b["coincidence_unit.pairs_busy_s"]),
    "coincidence_unit.triples_busy_s": ("s", lambda b, c: b["coincidence_unit.triples_busy_s"]),
    "coincidence_unit.self_s": ("s", lambda b, c: b["coincidence_unit.self_s"]),
    "coincidence_unit.events_in": ("clicks", lambda b, c: c["events_in"]),
    "coincidence_unit.pairs_found": ("count", lambda b, c: c["pairs_found"]),
    "coincidence_unit.triples_found": ("count", lambda b, c: c["triples_found"]),
    "simulate.self_s": ("s", lambda b, c: b["simulate.self_s"]),
    "statistics.busy_s": ("s", lambda b, c: b["statistics.busy_s"]),
    "cli_harness.import_s": ("s", lambda b, c: b["cli_harness.import_s"]),
    "cli_harness.config_s": ("s", lambda b, c: b["cli_harness.config_s"]),
    "cli_harness.report_s": ("s", lambda b, c: b["cli_harness.report_s"]),
}
# computed across operations, not from one traced operation
PER_LAYER_RUN_UNITS = {
    "simulate.pool_speedup": "x",
    "simulate.pool_wait_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}

SINGLES = ("single_A'", "single_A''", "single_B'", "single_B''")
REFERENCE_PAIRS = ("pair_A'A''", "pair_B'B''", "pair_A'B'", "pair_A'B''")
CROSS_PAIRS = ("pair_A'B'", "pair_A'B''", "pair_A''B'", "pair_A''B''")

# Acceptance bands, fixed from the physics before any seed was run:
# dead time (22 ns at ~5e5 clicks/s per detector) costs about 1% of singles and
# 2% of pairs, so counts may sit BAND_REL below the dead-time-free expectation,
# plus BAND_SIGMAS Poisson standard deviations either way.
BAND_REL = 0.03
BAND_SIGMAS = 5.0
Z_MAX = 5.0  # |z| of a classical vs phase-basis pair counter
FLOOR_TAIL = 1e-9  # Poisson tail allowed above the dark-accidental floor


# --- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    command: str  # bunchsim subcommand
    config: dict  # configuration keys, passed as flags
    workers: int
    check: Callable  # (op result, op dir) -> list of problems
    output: str  # file whose bytes must repeat across operations
    models: tuple = ()
    replay: bool = False

    def argv(self, seed: int, out_dir: Path, workers: int) -> list[str]:
        argv = [self.command]
        for key, value in self.config.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        if self.models:
            argv += ["--models", ",".join(self.models)]
        return argv + ["--seed", str(seed), "--workers", str(workers), "--quiet", "--output-dir", str(out_dir)]

    def overrides(self, seed: int, out_dir: Path) -> dict:
        model = {"model": self.models[0]} if self.models else {}
        return {**self.config, **model, "seed": seed, "output_dir": str(out_dir)}


def _read_tally(path: Path) -> dict[str, int]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "counter_name,count,rate_per_s":
        raise ValueError(f"{path.name}: not a tally CSV")
    return {name: int(count) for name, count, _ in (line.split(",") for line in lines[1:])}


def _band_problems(counts: dict, expected: dict) -> list[str]:
    problems = []
    for name, mean in expected.items():
        low = (1 - BAND_REL) * mean - BAND_SIGMAS * math.sqrt(mean)
        high = mean + BAND_SIGMAS * math.sqrt(mean)
        if not low <= counts[name] <= high:
            problems.append(f"{name} = {counts[name]} outside [{low:.0f}, {high:.0f}]")
    return problems


def check_block2(result: dict, op_dir: Path) -> list[str]:
    """Singles and reference pairs against the exact dead-time-free expectation.

    Classical and phase-basis routing both send each photon to each detector
    with probability 1/4, so a detector stays dark in a slot with probability
    exp(-nbar * eta / 4) and two given detectors both fire with the square of
    the complement. Clicks of different slots are 12.8 ns apart, outside the
    5 ns window, so pairs come from single slots.
    """
    cfg = result["config"]
    fire = -math.expm1(-cfg["mean_photon_number"] * cfg["efficiency"] / 4)
    slots = cfg["acquisition_s"] * cfg["slot_rate"]
    expected = {name: slots * fire + cfg["acquisition_s"] * cfg["dark_rate"] for name in SINGLES}
    expected.update({name: slots * fire * fire for name in REFERENCE_PAIRS})
    return _band_problems(_read_tally(op_dir / "tally.csv"), expected)


def check_replay(result: dict, op_dir: Path) -> list[str]:
    if (op_dir / "replay_tally.csv").read_bytes() != (op_dir / "tally.csv").read_bytes():
        return ["replayed tally differs from the run's tally"]
    return []


def _poisson_ceiling(mean: float) -> int:
    """Smallest k with P(X > k) < FLOOR_TAIL for X ~ Poisson(mean)."""
    term = cdf = math.exp(-mean)
    k = 0
    while 1.0 - cdf >= FLOOR_TAIL:
        k += 1
        term *= mean / k
        cdf += term
    return k


def _comparison(path: Path) -> tuple[list[str], dict[str, list[str]]]:
    """(header, rows by counter name) of a comparison CSV."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return header, {cells[0]: cells for cells in rows}


def check_compare(result: dict, op_dir: Path) -> list[str]:
    """Bunching cross-side pairs at the dark-accidental floor; classical and
    phase-basis indistinguishable, and both clearly above that floor."""
    header, rows = _comparison(op_dir / "comparison.csv")
    col = {name: header.index(name) for name in ("classical", "phase-basis", "bunching")}
    z_col = header.index("z_classical_vs_phase-basis")
    cfg = result["config"]
    window_s = cfg["window_ps"] * 1e-12

    def count(row, model):
        return int(rows[row][col[model]])

    problems = []
    for pair in CROSS_PAIRS:
        left, right = "single_" + pair[5:pair.index("B")], "single_" + pair[pair.index("B"):]
        floor = 2 * window_s * cfg["dark_rate"] * (count(left, "bunching") + count(right, "bunching"))
        ceiling = _poisson_ceiling(floor)
        if count(pair, "bunching") > ceiling:
            problems.append(f"bunching {pair} = {count(pair, 'bunching')} above floor ceiling {ceiling}")
        if count(pair, "classical") <= ceiling:
            problems.append(f"classical {pair} = {count(pair, 'classical')} not above floor ceiling {ceiling}")
    for name, cells in rows.items():
        if name.startswith("pair_"):
            z = float(cells[z_col]) if cells[z_col] else math.inf
            if not abs(z) <= Z_MAX:
                problems.append(f"classical vs phase-basis {name}: z = {cells[z_col] or 'undefined'}")
    return problems


# Why each workload: METRICS.md.
WORKLOADS = {
    "block2-run": Workload(
        "run", {"preset": "table1-block2", "model": "phase-basis"}, 1, check_block2, "tally.csv"
    ),
    "bright-replay": Workload(
        "run",
        {"model": "classical", "mean_photon_number": 1.0, "acquisition_s": 0.05, "events_format": "binary"},
        1,
        check_replay,
        "tally.csv",
        replay=True,
    ),
    "compare-3model": Workload(
        "compare",
        {"preset": "table1-block2", "dark_rate": 27.0, "window_ps": 5000},
        2,
        check_compare,
        "comparison.csv",
        models=("classical", "phase-basis", "bunching"),
    ),
}


# --- running operations ------------------------------------------------------------


@dataclass
class Op:
    kind: str  # "setup", "untraced", "traced" or "traced-1worker"
    result: dict
    problems: list = field(default_factory=list)
    clicks: int = 0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts operation children one at a time and checks what they leave."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.reference: bytes | None = None
        self.ops: list[Op] = []
        self.started = 0
        self.longest = 0.0

    def fits(self) -> bool:
        return time.perf_counter() + 1.5 * self.longest < self.deadline

    def run(self, kind: str) -> Op:
        index = self.started
        self.started += 1
        op_dir = self.run_dir / f"op{index}"
        op_dir.mkdir()
        workers = 1 if kind == "traced-1worker" else self.workload.workers
        spec = {
            "root": str(ROOT),
            "op_id": index,
            "setup_only": kind == "setup",
            "trace": kind.startswith("traced"),
            "overrides": self.workload.overrides(self.seed, op_dir),
            "argv": self.workload.argv(self.seed, op_dir, workers),
            "replay": {"events": str(op_dir / "events.bin"), "tally": str(op_dir / "replay_tally.csv")}
            if self.workload.replay
            else None,
            "result": str(op_dir / "result.json"),
        }
        (op_dir / "spec.json").write_text(json.dumps(spec))
        started = time.perf_counter()
        with open(op_dir / "stdout.txt", "wb") as out, open(op_dir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "op.py"), str(op_dir / "spec.json")],
                stdout=out, stderr=err, env=_child_env(), cwd=ROOT, start_new_session=True,
            )
            try:
                proc.wait(timeout=max(self.deadline + 10 - started, 1))
            except subprocess.TimeoutExpired:
                pass
            finally:
                # the session holds the child and any pool workers it started
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        self.longest = max(self.longest, time.perf_counter() - started)
        result_path = op_dir / "result.json"
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        if "setup_done" in result:
            result["setup_s"] = result["setup_done"] - started
        op = Op(kind, result)
        op.problems = self.check(op, op_dir, proc.returncode)
        self.ops.append(op)
        (op_dir / "events.bin").unlink(missing_ok=True)
        return op

    def check(self, op: Op, op_dir: Path, returncode: int) -> list[str]:
        result = op.result
        if returncode != 0 or "error" in result:
            tail = result.get("error") or (op_dir / "stderr.txt").read_text(errors="replace")[-2000:]
            return [f"exit code {returncode}: {tail.strip()}"]
        if op.kind == "setup":
            return []
        w = self.workload
        try:
            produced = (op_dir / w.output).read_bytes()
            problems = []
            if (op_dir / "stdout.txt").read_bytes() != produced:
                problems.append(f"stdout differs from {w.output}")
            if self.reference is None:
                self.reference = produced
            elif produced != self.reference:
                problems.append(f"{w.output} differs from the first operation's with the same seed")
            problems += w.check(result, op_dir)
            op.clicks = _registered_clicks(op_dir / w.output, w)
        except (OSError, ValueError, KeyError, IndexError) as err:
            problems = [f"unreadable output: {err!r}"]
        if op.kind.startswith("traced"):
            problems += _trace_consistency(result)
        return problems


def _registered_clicks(path: Path, w: Workload) -> int:
    if not w.models:
        counts = _read_tally(path)
        return sum(counts[name] for name in SINGLES)
    _, rows = _comparison(path)
    return sum(int(rows[name][1 + i]) for name in SINGLES for i in range(len(w.models)))


def _trace_consistency(result: dict) -> list[str]:
    """The counts seen at the call sites must agree with the tally."""
    c = result.get("counts", {})
    problems = []
    for seen, told in (("events_in", "tally_singles"), ("pairs_found", "tally_pairs"),
                       ("triples_found", "tally_triples")):
        if seen in c and told in c and c[seen] != c[told]:
            problems.append(f"trace: {seen} {c[seen]} != {told} {c[told]}")
    if all(k in c for k in ("candidate_clicks", "dark_clicks", "merged_events")):
        if c["candidate_clicks"] + c["dark_clicks"] != c["merged_events"]:
            problems.append("trace: candidate + dark clicks != events into dead time")
    return problems


# --- metrics ------------------------------------------------------------------------


def _self_times(spans: list[dict]) -> dict[int, float]:
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _op_subtree(spans: list[dict]) -> set[int]:
    inside: set[int] = set()
    for s in spans:  # parents precede their children
        if s["name"] == "op" or s["parent"] in inside:
            inside.add(s["id"])
    return inside


def traced_layers(result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced operation, and which are absent."""
    spans, counts = result["spans"], dict(result["counts"])
    installed = set(result["installed"]) | {"cli_harness.import"}
    failed = {entry[len("count:"):] for entry in result["absent"] if entry.startswith("count:")}
    own = _self_times(spans)
    busy = {
        metric: sum(own[s["id"]] for s in spans if s["name"] in names)
        for metric, names in BUSY_SPANS.items()
        if installed & set(names)
    }
    usable = {key for key, source in COUNT_SOURCES.items() if source in installed and source not in failed}
    counts = {key: counts.get(key, 0) for key in usable}
    values, absent = {}, []
    for metric, (_, formula) in PER_LAYER.items():
        try:
            values[metric] = float(formula(busy, counts))
        except KeyError:
            absent.append(metric)
            values[metric] = 0.0
        except ZeroDivisionError:
            values[metric] = 0.0
    return values, absent


def _simulate_streams(result: dict) -> tuple[float, float]:
    """(wall, wall minus process CPU) summed over simulate_streams spans."""
    spans = [s for s in result["spans"] if s["name"] == "simulate.simulate_streams"]
    wall = sum(s["end"] - s["start"] for s in spans)
    return wall, wall - sum(s["cpu_end"] - s["cpu_start"] for s in spans)


def _coverage(result: dict) -> float:
    """Share of the operation's wall time charged to some per-layer busy metric."""
    spans = result["spans"]
    inside, own = _op_subtree(spans), _self_times(spans)
    charged = {name for names in BUSY_SPANS.values() for name in names}
    root = next(s for s in spans if s["name"] == "op")
    covered = sum(own[s["id"]] for s in spans if s["id"] in inside and s["name"] in charged)
    return covered / (root["end"] - root["start"])


def end_to_end(w: Workload, ops: list[Op], setups: list[float]) -> dict:
    good = [op for op in ops if not op.problems]
    wall = median(op.result["wall"] for op in good)
    models = max(len(w.models), 1)
    return {
        "wall_s": wall,
        "slots_per_s": good[0].result["slots"] * models / wall,
        "clicks_per_s": good[0].clicks / wall,
        "setup_s": median(setups),
        "peak_rss_mb": median(op.result["maxrss_kb"] / 1024 for op in good),
        "ok_frac": len(good) / len(ops),
    }


def check_counts_repeat(ops: list[Op]) -> None:
    """Deterministic counts must repeat exactly in every traced operation."""
    traced = [op for op in ops if op.kind.startswith("traced") and not op.problems]
    for op in traced[1:]:
        first, counts = traced[0].result["counts"], op.result["counts"]
        differ = sorted(k for k in counts.keys() & first.keys() if counts[k] != first[k])
        if differ:
            op.problems.append(f"traced counts differ from the first traced operation: {', '.join(differ)}")


def per_layer(w: Workload, ops: list[Op]) -> tuple[dict, list[str]]:
    """Per-layer metrics and the names of the absent ones."""
    good = [op for op in ops if not op.problems]
    untraced = [op for op in good if op.kind == "untraced"]
    traced = [op for op in good if op.kind == "traced"]
    serial = [op for op in good if op.kind == "traced-1worker"]
    layer_ops = serial or traced

    per_op = [traced_layers(op.result) for op in layer_ops]
    metrics = {name: median(values[name] for values, _ in per_op) for name in PER_LAYER}
    absent = sorted({name for _, missing in per_op for name in missing})
    pooled = [_simulate_streams(op.result) for op in traced]
    metrics["simulate.pool_wait_s"] = median(waited for _, waited in pooled)
    metrics["simulate.pool_speedup"] = (
        median(_simulate_streams(op.result)[0] for op in serial) / median(wall for wall, _ in pooled)
        if serial
        else 1.0
    )
    metrics["trace.overhead_frac"] = (
        median(op.result["wall"] for op in traced) / median(op.result["wall"] for op in untraced) - 1
    )
    metrics["trace.coverage_frac"] = median(_coverage(op.result) for op in layer_ops)
    return metrics, absent


def _percentile_line(walls: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(walls)
    line = f"wall_s median {median(walls):.4f} s over {n} operations"
    if n >= 11:
        ordered = sorted(walls)
        line += f", p{100 * (n - 10) // n} {ordered[n - 11]:.4f} s"
    else:
        line += "; no percentile has 10 samples beyond it"
    return line


# --- context and the run -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (base / "level").read_text().strip()
            kind = (base / "type").read_text().strip()
            size = (base / "size").read_text().strip()
        except OSError:
            break
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def context(args, w: Workload, ops: list[Op]) -> dict:
    good = [op for op in ops if not op.problems]
    sample = good[0] if good else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "versions": sample.result.get("versions") if sample else None,
        "repetitions": len(ops),
        "slots_per_operation": sample.result["slots"] * max(len(w.models), 1) if sample else None,
        "registered_clicks_per_operation": sample.clicks if sample else None,
    }


def measure(args) -> dict:
    w = WORKLOADS[args.workload]
    begin = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(w, args.seed, run_dir, begin + RUN_LIMIT_S)
        warmup = runner.run("setup")  # compiles bytecode and warms the file cache
        if warmup.problems:
            raise SystemExit(f"set-up failed: {warmup.problems[0]}")
        runner.ops.clear()
        if args.trace:
            plan = ["untraced", "traced"] + (["traced-1worker"] if w.workers > 1 else [])
            cycle, least = ["untraced", "traced"], len(plan) + 2 * (MIN_TRACED_PAIRS - 1)
        else:
            plan, cycle, least = [], ["untraced"], MIN_OPS
        start = time.perf_counter()
        while runner.fits():
            done = len(runner.ops)
            if done >= least and time.perf_counter() - start >= args.seconds:
                break
            runner.run(plan[done] if done < len(plan) else cycle[(done - len(plan)) % len(cycle)])
        ops = list(runner.ops)
        setups = [op.result["setup_s"] for op in ops if "setup_s" in op.result]
        while not args.trace and len(setups) < SETUP_SAMPLES and runner.fits():
            extra = runner.run("setup")
            if extra.problems:
                raise SystemExit(f"set-up failed: {extra.problems[0]}")
            setups.append(extra.result["setup_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        check_counts_repeat(ops)
    failed = [op for op in ops if op.problems]
    report = {
        "context": context(args, w, ops),
        "operations": [
            {"kind": op.kind, "wall": op.result.get("wall"), "setup_s": op.result.get("setup_s"),
             "maxrss_kb": op.result.get("maxrss_kb"), "problems": op.problems}
            for op in ops
        ],
        "setup_samples": setups,
    }
    needed = {"untraced", "traced"} if args.trace else {"untraced"}
    if needed - {op.kind for op in ops if not op.problems}:
        _write_record(args, report, ops)
        raise SystemExit("no usable operation:\n" + "\n".join(p for op in failed for p in op.problems))
    if args.trace:
        metrics, absent = per_layer(w, ops)
        units = {**{k: u for k, (u, _) in PER_LAYER.items()}, **PER_LAYER_RUN_UNITS}
        report["absent"] = absent
    else:
        metrics, units = end_to_end(w, ops, setups), END_TO_END_UNITS
    report["metrics"] = metrics
    _write_record(args, report, ops)

    walls = [op.result["wall"] for op in ops if op.kind == "untraced" and not op.problems]
    ctx = report["context"]
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, {len(failed)} failed "
          f"(fail_frac {len(failed) / len(ops):.4f}); {_percentile_line(walls)}; "
          f"{ctx['slots_per_operation']} slots and {ctx['registered_clicks_per_operation']} "
          "registered clicks per operation")
    for op in failed:
        print(f"  failed {op.kind} operation: {'; '.join(op.problems)}")
    if report.get("absent"):
        print(f"  absent layers (reported as 0): {', '.join(report['absent'])}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _write_record(args, report: dict, ops: list[Op]) -> None:
    """Append the run to .perfbench/runs.jsonl; spans go to .perfbench/trace/."""
    with open(WORK / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(report) + "\n")
    traced = [op for op in ops if op.kind.startswith("traced")]
    if traced:
        (WORK / "trace").mkdir(exist_ok=True)
        path = WORK / "trace" / f"{args.workload}-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
        path.write_text(json.dumps({
            "context": report["context"],
            "operations": [
                {"id": i, "kind": op.kind, "wall": op.result.get("wall"), "spans": op.result.get("spans"),
                 "counts": op.result.get("counts"), "absent_call_sites": op.result.get("absent")}
                for i, op in enumerate(traced)
            ],
        }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "bunchsim" / "__init__.py").is_file():
        print(f"bunchsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 1
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
