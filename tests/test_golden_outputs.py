"""Byte-identity of the written reports against digests pinned in tests/data.

Each run covers two canonical source chunks (the second one partial), dark
counts, dead time and the event dumps, so any change to a draw, to the
counting or to a writer shows up here as a digest mismatch. The comparison
table comes from `compare_models` itself, which routes one shared source
pass through all three models. One more run sits at a slot period below
twice the coincidence window, so coincidences span adjacent slots.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest

from bunchsim import coincidence_unit
from bunchsim.cli_harness import analysis_csv, compare_models, parse_config, run_experiment
from bunchsim.coincidence_unit import tally_to_json

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_outputs.json").read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for model, spec in GOLDEN["runs"].items():
        overrides = dict(
            GOLDEN["overrides"],
            model=model,
            events_format=spec["events_format"],
            output_dir=str(out / model),
        )
        run_experiment(parse_config("", overrides))
    return out


@pytest.mark.parametrize("model", list(GOLDEN["runs"]))
def test_run_reports_match_pinned_digests(golden_runs, model):
    expected = GOLDEN["runs"][model]["digests"]
    actual = {name: sha256(golden_runs / model / name) for name in expected}
    assert actual == expected


def test_adjacent_slot_run_matches_pinned_digests(tmp_path):
    spec = GOLDEN["adjacent_slots"]
    cfg = parse_config("", dict(spec["overrides"], output_dir=str(tmp_path)))
    with mock.patch.object(coincidence_unit, "_greedy", wraps=coincidence_unit._greedy) as walk:
        run_experiment(cfg)
    actual = {name: sha256(tmp_path / name) for name in spec["digests"]}
    assert actual == spec["digests"]
    # clusters with two clicks of one detector do occur here, so the greedy
    # walk is covered, for pairs (2 streams) and for triples (3 streams)
    walks = [call.args[0] for call in walk.call_args_list]
    for k in (2, 3):
        assert any(len(streams) == k and len(streams[0]) for streams in walks)


def compare_golden(out: Path, workers: int):
    models = list(GOLDEN["runs"])
    cfg = parse_config("", dict(GOLDEN["overrides"], model=models[0], output_dir=str(out)))
    return compare_models(cfg, models, workers=workers)


def test_comparison_matches_pinned_digest(tmp_path):
    for workers in (1, 2):
        compare_golden(tmp_path / f"workers{workers}", workers)
        assert sha256(tmp_path / f"workers{workers}" / "comparison.csv") == GOLDEN["comparison.csv"]


def test_compare_columns_equal_standalone_runs(golden_runs, tmp_path):
    # the shared pass gives each model exactly the run a standalone `run` gives
    for name, tally, corr in compare_golden(tmp_path, workers=1):
        assert tally_to_json(tally) == (golden_runs / name / "run.json").read_text()
        assert analysis_csv(tally, corr) == (golden_runs / name / "analysis.csv").read_text()
