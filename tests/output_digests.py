"""SHA-256 digests of the outputs of the benchmark's workloads and two large-mean runs.

Usage: PYTHONPATH=<tree>/src python tests/output_digests.py OUT

Runs, through bunchsim's command line, at seeds 101, 202 and 303:
block2-run at workers 1 and 2; bright-replay, with its binary event dump
and the tally of that dump read back and counted (read_events +
accumulate); compare-3model at workers 2; a classical/bunching compare at
mean 20, 7.8e7 slots/s, 0.2 s, at workers 2, where most chunks have no
interior; and a mean-20 run at workers 2, 0.05 s, with a binary dump. Each
run writes under OUT/<seed>/<name>. Then one "sha256  path" line is
printed per file, path relative to OUT, so the output of two trees can be
compared with diff: a change that keeps every output byte-identical prints
the same lines. pytest does not collect this file; a full pass took about
a minute on a 2-core host and writes ~245 MB, most of it event dumps.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from bunchsim import cli_harness
from bunchsim.coincidence_unit import CcuConfig, accumulate, tally_to_csv
from bunchsim.detector_bank import read_events

SEEDS = (101, 202, 303)
MEAN_20 = {"mean_photon_number": 20.0, "slot_rate": 7.8e7}

# name: (command, flags, workers); the first three are perfbench's workloads
RUNS = {
    "block2-run-w1": ("run", {"preset": "table1-block2", "model": "phase-basis"}, 1),
    "block2-run-w2": ("run", {"preset": "table1-block2", "model": "phase-basis"}, 2),
    "bright-replay": (
        "run", {"model": "classical", "mean_photon_number": 1.0, "acquisition_s": 0.05, "events_format": "binary"}, 1,
    ),
    "compare-3model": (
        "compare",
        {"preset": "table1-block2", "dark_rate": 27.0, "window_ps": 5000, "models": "classical,phase-basis,bunching"},
        2,
    ),
    "mean20-compare": ("compare", {**MEAN_20, "acquisition_s": 0.2, "models": "classical,bunching"}, 2),
    "mean20-run": ("run", {**MEAN_20, "model": "classical", "acquisition_s": 0.05, "events_format": "binary"}, 2),
}


def run(command: str, flags: dict, workers: int, seed: int, out: Path) -> None:
    argv = [command]
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    argv += ["--seed", str(seed), "--workers", str(workers), "--quiet", "--output-dir", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):  # a run prints its tally
        rc = cli_harness.main(argv)
    if rc != 0:
        raise SystemExit(f"failed: bunchsim {' '.join(argv)}")


def replay(flags: dict, seed: int, out: Path) -> None:
    """The tally of a run's binary event dump read back, as bright-replay counts it."""
    cfg = cli_harness.parse_config("", {**flags, "seed": seed, "output_dir": str(out)})
    streams = read_events(out / "events.bin", "binary")
    tally = accumulate(streams, CcuConfig(window_ps=cfg.window_ps, acquisition_s=cfg.acquisition_s))
    (out / "replay_tally.csv").write_text(tally_to_csv(tally))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    root = Path(argv[0])
    for seed in SEEDS:
        for name, (command, flags, workers) in RUNS.items():
            out = root / str(seed) / name
            run(command, flags, workers, seed, out)
            if name == "bright-replay":
                replay(flags, seed, out)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
