"""Every call site the benchmark's tracer wraps still names a callable.

The tracer looks each site up at run time and skips a missing one, so a
renamed or moved function shows up there only as an absent per-layer
metric. This reads its CALL_SITES and resolves each site here instead, and
runs the benchmark's one pooled traced operation at full length.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# sites whose function the program no longer calls through that module
STALE = {"bunchsim.cli_harness.accumulate", "bunchsim.simulate.chunk_arrays"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def call_sites():
    return [(module, attr) for module, attr, _, _ in load_tracer().CALL_SITES]


def test_every_traced_call_site_resolves_to_a_callable():
    sites = call_sites()
    assert sites
    lost = [
        f"{module}.{attr}"
        for module, attr in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert [site for site in lost if site not in STALE] == []


def installed_tracer(monkeypatch):
    """(perfbench's tracer installed in this process, its traced modules)."""
    perf = load_tracer()
    modules = {name: importlib.import_module(name) for name, _, _, _ in perf.CALL_SITES}
    for name, attr, _, _ in perf.CALL_SITES:
        if hasattr(modules[name], attr):
            # the tracer wraps it in place; monkeypatch puts the original back
            monkeypatch.setattr(modules[name], attr, getattr(modules[name], attr))
    tracer = perf.Tracer(0)
    perf.install(tracer)
    return tracer, modules


def test_traced_run_and_replay_record_every_counter(tmp_path, monkeypatch):
    # a counter that raises, say on a call signature that drifted, is only
    # recorded as absent, and its per-layer metrics read 0 in the benchmark
    tracer, modules = installed_tracer(monkeypatch)
    cli = modules["bunchsim.cli_harness"]
    bank = modules["bunchsim.detector_bank"]
    unit = modules["bunchsim.coincidence_unit"]
    flags = ["--model", "classical", "--mean-photon-number", "1.0", "--acquisition-s", "0.002", "--seed", "3"]
    assert cli.main(["run", *flags, "--events-format", "binary", "--quiet", "--output-dir", str(tmp_path)]) == 0
    streams = bank.read_events(tmp_path / "events.bin", "binary")
    tally = unit.accumulate(streams, unit.CcuConfig(5_000, 0.002))
    assert unit.tally_to_csv(tally) == (tmp_path / "tally.csv").read_text()

    assert [entry for entry in tracer.absent if entry.startswith("count:")] == []
    assert set(tracer.absent) <= STALE
    counts = tracer.counts
    # one dark_events call per model: every candidate and dark enters dead time once
    assert counts["candidate_clicks"] + counts["dark_clicks"] == counts["merged_events"] > 0
    assert counts["event_bytes"] == (tmp_path / "events.bin").stat().st_size


def test_traced_chunked_run_enters_every_dark_into_dead_time_once(tmp_path, monkeypatch):
    # 20 chunks of 2^12 slots, 52 us each, with ~50 darks per detector in
    # each: the darks enter dead time through the chunk jobs and the jobs
    # between their interiors, and perfbench's check still adds up
    tracer, modules = installed_tracer(monkeypatch)
    source = importlib.import_module("bunchsim.photon_source")
    monkeypatch.setattr(source, "CHUNK_SLOTS", 1 << 12)
    assert source.num_chunks(source.SourceConfig(0.05, 7.8e7, 0.00105, 3)) == 20
    flags = ["--model", "classical", "--mean-photon-number", "0.05", "--slot-rate", "7.8e7",
             "--acquisition-s", "0.00105", "--dark-rate", "1e6", "--seed", "3"]
    assert modules["bunchsim.cli_harness"].main(["run", *flags, "--workers", "1", "--quiet",
                                                 "--output-dir", str(tmp_path)]) == 0
    counts = tracer.counts
    assert counts["dark_clicks"] > 4 * 20 * 40
    assert counts["candidate_clicks"] + counts["dark_clicks"] == counts["merged_events"]


def test_benchmarks_pooled_traced_compare_passes_its_checks():
    # perfbench's own smoke tests run compare-3model at 0.005 s, one chunk,
    # so no pool starts; at full length its 19 chunks go through a 2-worker
    # pool, and the counts of its traced 1-worker operation must equal those
    # of the pooled traced ones. It writes only under .perfbench/.
    command = [sys.executable, "perfbench/run.py", "--workload", "compare-3model",
               "--seed", "5", "--seconds", "0", "--trace", "1"]
    # run.py starts no operation that could end past 160 s
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
