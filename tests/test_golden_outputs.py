"""Byte-identity of the written reports against digests pinned in tests/data.

Each run covers two canonical source chunks (the second one partial), dark
counts, dead time and the event dumps, so any change to a draw, to the
counting or to a writer shows up here as a digest mismatch.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bunchsim.cli_harness import comparison_csv, parse_config, run_experiment

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_outputs.json").read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    results = {}
    for model, spec in GOLDEN["runs"].items():
        overrides = dict(
            GOLDEN["overrides"],
            model=model,
            events_format=spec["events_format"],
            output_dir=str(out / model),
        )
        tally, corr = run_experiment(parse_config("", overrides))
        results[model] = (tally, corr)
    return out, results


@pytest.mark.parametrize("model", list(GOLDEN["runs"]))
def test_run_reports_match_pinned_digests(golden_runs, model):
    out, _ = golden_runs
    expected = GOLDEN["runs"][model]["digests"]
    actual = {name: sha256(out / model / name) for name in expected}
    assert actual == expected


def test_comparison_matches_pinned_digest(golden_runs):
    # compare_models runs the same per-model pipeline, so the side-by-side
    # table of the three runs above is what `bunchsim compare` writes
    _, results = golden_runs
    rows = [(model, tally, corr) for model, (tally, corr) in results.items()]
    text = comparison_csv(rows)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN["comparison.csv"]
