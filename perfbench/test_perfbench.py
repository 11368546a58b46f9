"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py

Every workload runs in a short-acquisition smoke mode; the printed metrics
must match BENCHMARK.json by name and unit, and corrupted outputs must be
counted as failed operations.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMOKE_ACQUISITION_S = 0.005


@pytest.fixture
def smoke(monkeypatch):
    """Short acquisitions and few set-up samples, so a run takes seconds."""
    for name, w in run.WORKLOADS.items():
        monkeypatch.setitem(
            run.WORKLOADS, name, dataclasses.replace(w, config={**w.config, "acquisition_s": SMOKE_ACQUISITION_S})
        )
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)


def bench(capsys, workload, trace, seed=5):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(smoke, capsys, workload, trace):
    result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.coverage_frac"]["value"] > 0.9
        assert result["metrics"]["coincidence_unit.events_in"]["value"] > 0
    else:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def _corrupt_tally(op_dir, scale):
    for name in ("tally.csv", "stdout.txt"):
        path = op_dir / name
        lines = path.read_text().splitlines()
        label, count, rate = lines[1].split(",")
        lines[1] = f"{label},{int(int(count) * scale) + 1},{rate}"
        path.write_text("\n".join(lines) + "\n")


def test_corrupted_repetition_counts_as_failure(smoke, capsys, monkeypatch):
    original = run.Runner.check

    def corrupting(self, op, op_dir, returncode):
        if op.kind == "untraced" and op_dir.name != "op1":  # op0 is the warm-up
            _corrupt_tally(op_dir, 1.0)
        return original(self, op, op_dir, returncode)

    monkeypatch.setattr(run.Runner, "check", corrupting)
    result = bench(capsys, "block2-run", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 / result["attempted"])


def test_out_of_band_counts_fail_every_operation(smoke, capsys, monkeypatch):
    original = run.Runner.check

    def corrupting(self, op, op_dir, returncode):
        if op.kind == "untraced":
            _corrupt_tally(op_dir, 0.5)  # same bytes every time, but half the singles
        return original(self, op, op_dir, returncode)

    monkeypatch.setattr(run.Runner, "check", corrupting)
    with pytest.raises(SystemExit, match="single_A'"):
        run.main(["--workload", "block2-run", "--seed", "5", "--seconds", "0", "--trace", "0"])


def test_absent_call_site_is_reported_not_failed():
    spans = [
        {"id": 0, "name": "op", "parent": None, "start": 0.0, "end": 2.0},
        {"id": 1, "name": "photon_source.chunk_arrays", "parent": 0, "start": 0.5, "end": 1.5},
    ]
    result = {"spans": spans, "counts": {"slots": 10, "occupied": 4},
              "installed": ["photon_source.chunk_arrays"], "absent": ["bunchsim.simulate.route_counts"]}
    values, absent = run.traced_layers(result)
    assert values["photon_source.busy_s"] == 1.0
    assert values["photon_source.occupied_frac"] == 0.4
    assert "routing_models.busy_s" in absent and values["routing_models.busy_s"] == 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "block2-run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
