import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bunchsim
from bunchsim.cli_harness import (
    ConfigError,
    compare_models,
    main,
    parse_config,
    preset_values,
    run_experiment,
)
from bunchsim.coincidence_unit import (
    CROSS_SIDE_PAIRS,
    PAIR_KEYS,
    TRIPLE_KEYS,
    TallyTable,
    tally_to_csv,
)
from bunchsim.detector_bank import Detector, read_events
from bunchsim.simulate import simulate_streams
from bunchsim.statistics import REFERENCE_BLOCKS, calibrate

MINIMAL = "model = classical\nmean_photon_number = 0.02\nseed = 7\n"


def test_parse_config_fills_documented_defaults():
    cfg = parse_config(MINIMAL)
    cal = calibrate(REFERENCE_BLOCKS["block1"])
    assert cfg.model == "classical"
    assert cfg.mean_photon_number == 0.02
    assert cfg.seed == 7
    assert cfg.slot_rate == cal.slot_rate
    assert cfg.efficiency == cal.efficiency
    assert cfg.dark_rate == 27.0
    assert cfg.dead_time_ps == 22_000
    assert cfg.pulse_width_ps == 10_000
    assert cfg.jitter_ps == 350.0
    assert cfg.window_ps == 5_000
    assert cfg.acquisition_s == 1.0
    assert cfg.output_dir == "out"
    assert cfg.events_format == "none"


def test_parse_config_reports_every_violation_at_once():
    text = "mean_photon_number = lots\nwavelength = 780\nseed = -4\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    msgs = "\n".join(excinfo.value.violations)
    assert "mean_photon_number" in msgs and "lots" in msgs
    assert "wavelength: unknown key" in msgs
    assert "seed: must be >= 0" in msgs
    assert "model: required key is missing" in msgs
    # an unreadable value is one violation, not also "missing"
    assert msgs.count("mean_photon_number") == 1


@pytest.mark.parametrize(
    "text,needle",
    [
        (MINIMAL + "seed = 9\n", "duplicate key"),
        (MINIMAL + "just some words\n", "expected 'key = value'"),
        ("model = heisenberg\nmean_photon_number = 0.02\nseed = 1\n", "model: must be one of"),
        (MINIMAL + "mean_photon_number = -1\n", "duplicate"),
        (MINIMAL + "pulse_width_ps = 30000\n", "must not exceed dead_time_ps"),
        (MINIMAL + "efficiency = 1.2\n", "efficiency: must be in [0, 1]"),
    ],
)
def test_parse_config_rejections(text, needle):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert needle in str(excinfo.value)


def test_preset_matches_published_calibration():
    values = preset_values("table1-block2")
    cal = calibrate(REFERENCE_BLOCKS["block1"])
    assert values["mean_photon_number"] == REFERENCE_BLOCKS["block2"].mean_photon_number
    assert values["slot_rate"] == cal.slot_rate
    assert values["efficiency"] == cal.efficiency
    with pytest.raises(ConfigError):
        preset_values("table0")


def test_layering_precedence_flag_file_preset_default():
    text = "preset = table1-block1\nmodel = phase-basis\nseed = 1\ndark_rate = 5\n"
    cfg = parse_config(text, overrides={"dark_rate": "11"})
    assert cfg.dark_rate == 11.0  # flag beats file
    cfg = parse_config(text)
    assert cfg.dark_rate == 5.0  # file beats preset
    assert cfg.mean_photon_number == 0.022  # preset beats (missing) default
    assert cfg.window_ps == 5_000  # untouched default


def test_seed_optional_only_when_asked():
    text = "model = classical\nmean_photon_number = 0.02\n"
    with pytest.raises(ConfigError):
        parse_config(text)
    assert parse_config(text, require_seed=False).seed == 0


# --- run/compare ---------------------------------------------------------------


def quick_config(tmp_path, **replacements):
    text = (
        "model = phase-basis\n"
        "mean_photon_number = 0.05\n"
        "seed = 5\n"
        "slot_rate = 1e6\n"
        "acquisition_s = 0.5\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    overrides = {k: str(v) for k, v in replacements.items()}
    return parse_config(text, overrides)


def test_run_experiment_report_files(tmp_path):
    cfg = quick_config(tmp_path, events_format="text")
    tally, corr = run_experiment(cfg)
    out = tmp_path / "out"
    assert (out / "tally.csv").read_text() == tally_to_csv(tally)
    analysis = (out / "analysis.csv").read_text().splitlines()
    assert analysis[0] == "quantity,value"
    assert [row.split(",")[0] for row in analysis[1:]] == [
        "g2_cross",
        "g2_same",
        "bunching_fraction",
        "reference_pair_chisq",
        "reference_pair_p",
    ]
    report = json.loads((out / "run.json").read_text())
    assert report["acquisition_s"] == 0.5
    assert report["metadata"]["config"]["seed"] == 5
    events = read_events(out / "events.txt", fmt="text")
    assert sum(len(v) for v in events.values()) == sum(tally.singles.values())


def test_run_experiment_is_deterministic(tmp_path):
    run_experiment(quick_config(tmp_path / "a"))
    run_experiment(quick_config(tmp_path / "b"))
    for name in ("tally.csv", "analysis.csv", "run.json"):
        assert (tmp_path / "a/out" / name).read_bytes() == (tmp_path / "b/out" / name).read_bytes()


def test_run_bunching_without_darks_has_no_cross_pairs(tmp_path):
    cfg = quick_config(tmp_path, model="bunching", dark_rate=0)
    tally, corr = run_experiment(cfg)
    assert all(tally.pairs[k] == 0 for k in CROSS_SIDE_PAIRS)
    assert all(v == 0 for v in tally.triples.values())
    assert corr.bunching_fraction == 1.0


def test_compare_same_model_twice_gives_identical_columns(tmp_path):
    cfg = quick_config(tmp_path)
    results = compare_models(cfg, ["classical", "classical"])
    (_, t1, _), (_, t2, _) = results
    assert t1.singles == t2.singles and t1.pairs == t2.pairs and t1.triples == t2.triples
    text = (tmp_path / "out" / "comparison.csv").read_text()
    header = text.splitlines()[0].split(",")
    assert header[:3] == ["counter_name", "classical_1", "classical_2"]
    # identical runs: every z-score is exactly 0 (or blank for 0/0)
    for row in text.splitlines()[1:15]:
        z = row.split(",")[3]
        assert z in ("", "0.0")


def test_compare_rejects_bad_model_lists(tmp_path):
    cfg = quick_config(tmp_path)
    with pytest.raises(ConfigError):
        compare_models(cfg, ["classical"])
    with pytest.raises(ConfigError):
        compare_models(cfg, ["classical", "quantum-leap"])


def test_simulate_streams_rejects_configs_differing_beyond_model(tmp_path):
    base = quick_config(tmp_path).sim_config()
    changed = [
        dataclasses.replace(base, source=dataclasses.replace(base.source, seed=6)),
        dataclasses.replace(base, detectors=dataclasses.replace(base.detectors, dark_rate=1.0)),
        dataclasses.replace(base, ccu=dataclasses.replace(base.ccu, window_ps=4_000)),
    ]
    for other in changed:
        with pytest.raises(ValueError, match="differ only in model"):
            simulate_streams([base, other])
    with pytest.raises(ValueError):
        simulate_streams([])


def test_sim_config_rejects_durations_of_2_pow_53_ps(tmp_path):
    # construction only: the checks run before anything is simulated
    base = quick_config(tmp_path, slot_rate=1.0).sim_config()

    def with_duration(seconds):
        return dataclasses.replace(
            base,
            source=dataclasses.replace(base.source, duration=seconds),
            ccu=dataclasses.replace(base.ccu, acquisition_s=seconds),
        )

    assert with_duration(9e3).source.duration == 9e3
    with pytest.raises(ValueError, match="2\\^53 ps"):
        with_duration(1e4)


def test_setup_does_not_import_scipy_stats():
    # scipy.stats costs about a second and ~45 MB to import; setup must not load it
    src = str(Path(bunchsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "import bunchsim.cli_harness as cli\n"
        f"cli.parse_config({MINIMAL!r})\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


# --- entry point ---------------------------------------------------------------


def run_flags(tmp_path, *extra):
    return [
        "run",
        "--model",
        "classical",
        "--mean-photon-number",
        "0.02",
        "--seed",
        "3",
        "--slot-rate",
        "1e6",
        "--acquisition-s",
        "0.2",
        "--output-dir",
        str(tmp_path / "out"),
        "--quiet",
        *extra,
    ]


def test_main_run_succeeds_with_clean_stdout(tmp_path, capsys):
    assert main(run_flags(tmp_path)) == 0
    captured = capsys.readouterr()
    assert captured.out == (tmp_path / "out" / "tally.csv").read_text()
    assert "reports written" in captured.err


def test_main_configuration_errors_exit_1(tmp_path, capsys):
    assert main(["run", "--mean-photon-number", "0.02", "--seed", "3"]) == 1
    assert "model: required key is missing" in capsys.readouterr().err
    assert main(["compare", "--models", "classical", "--seed", "1", "--mean-photon-number", "0.02"]) == 1
    assert "compare: need at least two models" in capsys.readouterr().err
    assert main(["compare", "--models", "quantum-leap,classical", "--seed", "1", "--mean-photon-number", "0.02"]) == 1
    assert "compare: unknown model 'quantum-leap'" in capsys.readouterr().err


def test_main_duration_beyond_2_pow_53_ps_exits_2(tmp_path, capsys):
    flags = run_flags(tmp_path)
    flags[flags.index("--acquisition-s") + 1] = "1e4"
    flags[flags.index("--slot-rate") + 1] = "1"
    assert main(flags) == 2
    assert "reaches 2^53 ps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_runtime_failures_exit_2(tmp_path, capsys):
    clash = tmp_path / "not-a-directory"
    clash.write_text("occupied")
    code = main(run_flags(tmp_path) + ["--output-dir", str(clash)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_main_usage_errors_exit_1():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--no-such-flag"])
    assert excinfo.value.code == 1


def test_main_compare_writes_csv(tmp_path, capsys):
    args = [
        "compare",
        "--models",
        "classical,bunching",
        "--mean-photon-number",
        "0.05",
        "--seed",
        "2",
        "--slot-rate",
        "1e6",
        "--acquisition-s",
        "0.2",
        "--output-dir",
        str(tmp_path / "cmp"),
        "--quiet",
    ]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.out == (tmp_path / "cmp" / "comparison.csv").read_text()
    assert captured.out.splitlines()[0].startswith("counter_name,classical,bunching,z_")


def test_main_predict_lists_all_counters(capsys):
    assert main(["predict", "--model", "phase-basis", "--mean-photon-number", "0.022"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "counter_name,rate_per_s"
    assert len(lines) == 15  # 4 singles + 6 pairs + 4 triples
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(math.isfinite(v) and v >= 0 for v in values)


def test_main_calibrate_reports_block_fit(capsys):
    assert main(["calibrate"]) == 0
    rows = dict(
        line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]
    )
    cal = calibrate(REFERENCE_BLOCKS["block1"])
    assert float(rows["slot_rate"]) == cal.slot_rate
    assert float(rows["efficiency"]) == cal.efficiency
    assert any(k.startswith("residual_") for k in rows)


def test_main_calibrate_from_tally_file(tmp_path, capsys):
    tally = TallyTable(
        singles={det: 250_000 for det in Detector},
        pairs={key: 800 for key in PAIR_KEYS},
        triples={key: 2 for key in TRIPLE_KEYS},
        acquisition_s=1.0,
    )
    path = tmp_path / "tally.csv"
    path.write_text(tally_to_csv(tally))
    args = ["calibrate", "--from-tally", str(path), "--mean-photon-number", "0.022"]
    assert main(args) == 0
    rows = dict(line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:])
    eta = 4 * 800 / (250_000 * 0.022)
    assert float(rows["efficiency"]) == pytest.approx(eta, rel=1e-12)
    assert float(rows["slot_rate"]) == pytest.approx(4 * 250_000 / (0.022 * eta), rel=1e-12)
    assert main(["calibrate", "--from-tally", str(path)]) == 1  # no mean photon number