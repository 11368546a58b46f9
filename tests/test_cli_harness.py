import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bunchsim
from bunchsim.cli_harness import (
    _CONFIG_FIELDS,
    ConfigError,
    ExperimentConfig,
    build_parser,
    compare_models,
    main,
    parse_config,
    preset_values,
    run_experiment,
)
from bunchsim.coincidence_unit import (
    CROSS_SIDE_PAIRS,
    CSV_HEADER,
    PAIR_KEYS,
    SAME_SIDE_PAIRS,
    TRIPLE_KEYS,
    TallyTable,
    counter_name,
    tally_to_csv,
)
from bunchsim.detector_bank import Detector, read_events
from bunchsim.photon_source import MAX_MEAN_PHOTON_NUMBER
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
        (MINIMAL + "pulse_width_ps = 30000\n", "pulse_width_ps: unknown key"),
        (MINIMAL + "efficiency = 1.2\n", "efficiency: must be in [0, 1]"),
    ],
)
def test_parse_config_rejections(text, needle):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert needle in str(excinfo.value)


def test_config_flags_are_the_config_schema(capsys):
    assert [field.name for field in dataclasses.fields(ExperimentConfig)] == list(_CONFIG_FIELDS)
    [commands] = [action.choices for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    own = {"-h", "--help", "--config", "--preset", "--workers", "--quiet", "--models", "--exact"}
    expected = {"--" + key.replace("_", "-"): key for key in _CONFIG_FIELDS}
    for command, required in (("run", []), ("compare", ["--models", "classical,bunching"]), ("predict", [])):
        flags = {flag: action.dest for action in commands[command]._actions for flag in action.option_strings}
        assert {flag: dest for flag, dest in flags.items() if flag not in own} == expected, command
        with pytest.raises(SystemExit) as excinfo:
            main([command, *required, "--pulse-width-ps", "1"])
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --pulse-width-ps" in capsys.readouterr().err


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


def test_engine_rejections_are_config_errors(tmp_path):
    # SimConfig's own checks (here the 2^53 ps stream limit) that parse_config does not repeat
    cfg = quick_config(tmp_path, slot_rate=1.0, acquisition_s=1e4)
    with pytest.raises(ConfigError, match="2\\^53 ps"):
        run_experiment(cfg)
    with pytest.raises(ConfigError, match="2\\^53 ps"):
        compare_models(cfg, ["classical", "bunching"])
    assert not (tmp_path / "out").exists()


def test_simulate_streams_rejects_configs_differing_beyond_model(tmp_path):
    base = quick_config(tmp_path).sim_config()
    changed = [
        dataclasses.replace(base, source=dataclasses.replace(base.source, seed=6)),
        dataclasses.replace(base, detectors=dataclasses.replace(base.detectors, dark_rate=1.0)),
        dataclasses.replace(base, window_ps=4_000),
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
        return dataclasses.replace(base, source=dataclasses.replace(base.source, duration=seconds))

    assert with_duration(9e3).ccu.acquisition_s == 9e3
    with pytest.raises(ValueError, match="2\\^53 ps"):
        with_duration(1e4)


def test_every_name_in_all_resolves():
    # a stale entry would fail only at `from bunchsim import *`
    missing = [name for name in bunchsim.__all__ if not hasattr(bunchsim, name)]
    assert not missing


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


def test_main_duration_beyond_2_pow_53_ps_exits_1(tmp_path, capsys):
    flags = run_flags(tmp_path)
    flags[flags.index("--acquisition-s") + 1] = "1e4"
    flags[flags.index("--slot-rate") + 1] = "1"
    assert main(flags) == 1
    assert "reaches 2^53 ps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_mean_beyond_exp_range_exits_1(tmp_path, capsys):
    flags = run_flags(tmp_path)
    flags[flags.index("--mean-photon-number") + 1] = "1000"
    assert main(flags) == 1
    assert "mean_photon_number: must be in [0, 708.4]" in capsys.readouterr().err
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


def predict_exact(model, mean, *flags):
    """`predict --exact` output as {counter name: printed rate string}."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["predict", "--exact", "--model", model, "--mean-photon-number", str(mean), *flags]) == 0
    return dict(line.split(",") for line in out.getvalue().splitlines()[1:])


SINGLE_NAMES = [counter_name("single", det) for det in Detector]
PAIR_NAMES = [counter_name("pair", key) for key in PAIR_KEYS]
SAME_SIDE_NAMES = [counter_name("pair", key) for key in SAME_SIDE_PAIRS]
CROSS_SIDE_NAMES = [counter_name("pair", key) for key in CROSS_SIDE_PAIRS]
TRIPLE_NAMES = [counter_name("triple", key) for key in TRIPLE_KEYS]


@pytest.mark.parametrize("model", ["classical", "phase-basis", "bunching"])
@pytest.mark.parametrize("mean", [5, 10, 50, 700])
def test_predict_exact_holds_at_high_means(model, mean):
    # with independent detectors a counter of k detectors fires with q^k per slot
    cal = calibrate(REFERENCE_BLOCKS["block1"])
    rates = {name: float(rate) for name, rate in predict_exact(model, mean, "--dark-rate", "0").items()}
    if model == "bunching":  # one side lit per slot, half the time each
        q = -math.expm1(-mean * cal.efficiency / 2)
        expected = dict.fromkeys(SINGLE_NAMES, cal.slot_rate * q / 2)
        expected |= dict.fromkeys(SAME_SIDE_NAMES, cal.slot_rate * q**2 / 2)
        expected |= dict.fromkeys(CROSS_SIDE_NAMES + TRIPLE_NAMES, 0.0)
    else:
        q = -math.expm1(-mean * cal.efficiency / 4)
        expected = dict.fromkeys(SINGLE_NAMES, cal.slot_rate * q)
        expected |= dict.fromkeys(PAIR_NAMES, cal.slot_rate * q**2)
        expected |= dict.fromkeys(TRIPLE_NAMES, cal.slot_rate * q**3)
    assert rates.keys() == expected.keys()
    for name, rate in rates.items():
        assert rate == pytest.approx(expected[name], rel=1e-12, abs=0), name


@pytest.mark.parametrize("model", ["classical", "phase-basis", "bunching"])
@pytest.mark.parametrize("mean", [0.022, 0.3, 1.0, 5.0, 37.7, 700.0])
@pytest.mark.parametrize("dark", ["0", "27"])
def test_predict_exact_prints_exchangeable_counters_bit_identical(model, mean, dark):
    rates = predict_exact(model, mean, "--dark-rate", dark)
    if model == "bunching":
        classes = [SINGLE_NAMES, SAME_SIDE_NAMES, CROSS_SIDE_NAMES, TRIPLE_NAMES]
        if dark == "0":
            assert {rates[name] for name in CROSS_SIDE_NAMES + TRIPLE_NAMES} == {"0.0"}
    else:
        classes = [SINGLE_NAMES, PAIR_NAMES, TRIPLE_NAMES]
    for names in classes:
        assert len({rates[name] for name in names}) == 1, names


LIMIT = f"{MAX_MEAN_PHOTON_NUMBER:.1f}"


@pytest.mark.parametrize(
    "command,message",
    [
        (["predict", "--model", "classical"], f"mean_photon_number: must be in [0, {LIMIT}]"),
        (["predict", "--model", "bunching", "--efficiency", "0.5"], f"mean_photon_number: must be in [0, {LIMIT}]"),
        (["calibrate"], f"--mean-photon-number: must be in (0, {LIMIT}]"),
    ],
)
@pytest.mark.parametrize("mean", ["1000", "inf", "1e300"])
def test_predict_and_calibrate_reject_means_run_rejects(command, message, mean, capsys):
    # the Poisson CDF table of SourceConfig ends at exp(-mean) = smallest normal
    assert main([*command, "--mean-photon-number", mean]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_predict_accepts_means_below_the_limit(capsys):
    with pytest.warns(UserWarning, match="dilute regime"):
        assert main(["predict", "--model", "classical", "--mean-photon-number", "700"]) == 0
    assert capsys.readouterr().out.startswith("counter_name,rate_per_s\n")


CONFIG_KEYS = ["model", "mean_photon_number", "seed", "slot_rate", "efficiency", "dead_time_ps", "window_ps", "preset"]
ODD_NUMBERS = ["0", "-1", "inf", "-inf", "nan", "1e300", "1e400", "7" * 400, "0x10", "1_000", "", " "]
CONFIG_VALUES = st.one_of(
    st.sampled_from(ODD_NUMBERS + ["classical", "table1-block2", "bunching"]),
    st.text(max_size=12),
    st.integers(-(10**30), 10**30).map(str),
    st.floats().map(repr),
)


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(
        st.tuples(st.one_of(st.sampled_from(CONFIG_KEYS), st.text(max_size=8)), CONFIG_VALUES, st.sampled_from([" = ", "", "#"])),
        max_size=8,
    ),
    overrides=st.dictionaries(
        st.sampled_from(CONFIG_KEYS),
        st.one_of(CONFIG_VALUES, st.floats(), st.integers(-(10**400), 10**400), st.none()),
        max_size=4,
    ),
)
def test_parse_config_returns_a_config_or_raises_config_error(lines, overrides):
    text = "\n".join(f"{key}{sep}{value}" for key, value, sep in lines)
    try:
        cfg = parse_config(text, overrides, require_seed=False)
    except ConfigError as err:
        assert err.violations
    else:
        assert 0 <= cfg.mean_photon_number <= MAX_MEAN_PHOTON_NUMBER


ODD_FLOATS = [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 700.0, 709.0, 5e-324]
FLOAT_FLAG = st.one_of(st.sampled_from(ODD_FLOATS), st.floats(0, 1), st.floats()).map(repr)
INT_FLAG = st.one_of(
    st.sampled_from(["0", "-1", "inf", "nan", "1e300", "9" * 400]),
    st.integers(0, 10**6).map(str),
    st.integers(-(10**400), 10**400).map(str),
)
PREDICT_FLAGS = dict.fromkeys(
    ["--mean-photon-number", "--slot-rate", "--efficiency", "--dark-rate", "--jitter-ps", "--acquisition-s"], FLOAT_FLAG
) | dict.fromkeys(["--seed", "--dead-time-ps", "--window-ps"], INT_FLAG)


@settings(max_examples=200, deadline=None)
@given(
    model=st.sampled_from([None, "classical", "phase-basis", "bunching"]),
    flags=st.lists(st.sampled_from(sorted(PREDICT_FLAGS)), max_size=3, unique=True).flatmap(
        lambda names: st.tuples(*(st.tuples(st.just(name), PREDICT_FLAGS[name]) for name in names))
    ),
    exact=st.booleans(),
)
@example(model=None, flags=(("--mean-photon-number", "-inf"), ("--dark-rate", "-inf")), exact=False)
@example(model="bunching", flags=(("--slot-rate", "-inf"), ("--efficiency", "-inf")), exact=True)
def test_predict_exits_0_or_1_for_any_numeric_flags(model, flags, exact):
    # a few flags at a time, so that most of the others keep their valid defaults;
    # one --flag=value token each, so that values such as -inf reach the parser
    argv = ["predict", *(["--model", model] if model else []), *(["--exact"] if exact else [])]
    argv += [f"{flag}={value}" for flag, value in flags]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse usage errors
            code = stop.code
    assert code in (0, 1), err.getvalue()
    assert (code == 0) == bool(out.getvalue())


# ordinary values keep a run within ~1000 slots and a few dark clicks
ODD_RUN_FLOATS = ["0", "-0.0", "-1", "-1e300", "inf", "-inf", "nan", "1e300"]
RUN_FLOATS = {
    "--mean-photon-number": st.floats(0, 5),
    "--slot-rate": st.floats(0, 1e8),
    "--efficiency": st.floats(0, 1),
    "--dark-rate": st.floats(0, 1e6),
    "--jitter-ps": st.floats(0, 1e6),
}
RUN_INTS = dict.fromkeys(["--seed", "--dead-time-ps", "--window-ps"], st.integers(0, 10**6))
RUN_FLAGS = {name: st.one_of(st.sampled_from(ODD_RUN_FLOATS), values.map(repr)) for name, values in RUN_FLOATS.items()}
RUN_FLAGS |= {name: st.one_of(st.sampled_from(["0", "-1", "inf", "nan", "1e300"]), values.map(str)) for name, values in RUN_INTS.items()}


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["run", "compare"]),
    acquisition=st.one_of(st.sampled_from([*ODD_RUN_FLOATS, "5e-324", "1e-13"]), st.floats(1e-9, 1e-5).map(repr)),
    flags=st.lists(st.sampled_from(sorted(RUN_FLAGS)), max_size=4, unique=True).flatmap(
        lambda names: st.tuples(*(st.tuples(st.just(name), RUN_FLAGS[name]) for name in names))
    ),
)
@example(command="run", acquisition="-inf", flags=(("--slot-rate", "-inf"),))
@example(command="compare", acquisition="1e-6", flags=(("--mean-photon-number", "-inf"), ("--jitter-ps", "-inf")))
def test_run_and_compare_exit_0_or_1_for_any_numeric_flags(command, acquisition, flags):
    # exit 2 is for runtime failures; every value parse_config accepts must run
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--mean-photon-number", "0.5", "--seed", "1", "--quiet", "--output-dir", tmp]
        argv += ["--model", "classical"] if command == "run" else ["--models", "classical,phase-basis,bunching"]
        argv += [f"--acquisition-s={acquisition}", *(f"{flag}={value}" for flag, value in flags)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main(argv)
            except SystemExit as stop:  # argparse usage errors
                code = stop.code
    assert code in (0, 1), err.getvalue()
    assert (code == 0) == bool(out.getvalue())


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--slot-rate", "inf"], "slot_rate: must be finite and > 0"),
        (["--slot-rate", "1e300"], "acquisition_s * slot_rate must not exceed 2^53 slots"),
        (["--acquisition-s", "inf"], "acquisition_s: must be finite and >= 1e-12"),
        (["--acquisition-s", "1e-13"], "acquisition_s: must be finite and >= 1e-12"),
        (["--jitter-ps", "inf"], "jitter_ps: must be in [0, 2^53)"),
        (["--dark-rate", "inf"], "dark_rate: must be finite and >= 0"),
        (["--dark-rate", "1e300"], "dark_rate * acquisition_s must not exceed"),
    ],
)
def test_run_and_compare_reject_configs_the_engine_cannot_run(tmp_path, capsys, flags, message):
    compare = ["compare", *run_flags(tmp_path, *flags)[1:], "--models", "classical,bunching"]
    for argv in (run_flags(tmp_path, *flags), compare):
        assert main(argv) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stream_beyond_the_int_range_is_a_config_error(tmp_path, capsys):
    # a tiny slot rate keeps the slot count small; the 2^53 ps stream limit still applies
    assert main(run_flags(tmp_path, "--slot-rate", "5e-324", "--dark-rate", "0", "--acquisition-s", "1e300")) == 1
    assert "reaches 2^53 ps" in capsys.readouterr().err


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

@pytest.fixture(scope="module")
def tally_path(tmp_path_factory):
    tally = TallyTable(
        singles={det: 250_000 for det in Detector},
        pairs={key: 800 for key in PAIR_KEYS},
        triples={key: 2 for key in TRIPLE_KEYS},
        acquisition_s=1.0,
    )
    path = tmp_path_factory.mktemp("calibrate") / "tally.csv"
    path.write_text(tally_to_csv(tally))
    return path


@pytest.mark.parametrize("acquisition", ["-0.01", "0", "-0.0", "inf", "-inf", "nan"])
def test_calibrate_rejects_acquisitions_that_are_not_finite_and_positive(tally_path, acquisition, capsys):
    argv = ["calibrate", "--from-tally", str(tally_path), "--mean-photon-number", "0.022"]
    assert main([*argv, f"--acquisition-s={acquisition}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "acquisition_s must be finite and > 0" in captured.err


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "No such file or directory"),
        ("not,a,tally\n", "not a tally CSV"),
        (CSV_HEADER + "\n", "missing counters"),
        (CSV_HEADER + "\nfoo,1,1\n", "unknown counter: 'foo'"),
        (CSV_HEADER + "\nsingle_A',1,1\nsingle_A',2,1\n", "repeats the counter"),
    ],
)
def test_calibrate_reports_an_unusable_tally_as_a_config_error(tmp_path, capsys, content, message):
    path = tmp_path / "tally.csv"
    if content is not None:
        path.write_text(content)
    assert main(["calibrate", "--from-tally", str(path), "--mean-photon-number", "0.022"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@settings(max_examples=150, deadline=None)
@given(
    source=st.sampled_from(["block1", "block2", "tally"]),
    flags=st.lists(st.sampled_from(["--mean-photon-number", "--acquisition-s"]), max_size=2, unique=True).flatmap(
        lambda names: st.tuples(*(st.tuples(st.just(name), FLOAT_FLAG) for name in names))
    ),
)
@example(source="tally", flags=(("--mean-photon-number", "-inf"),))
@example(source="block2", flags=(("--acquisition-s", "-inf"), ("--mean-photon-number", "0.044")))
def test_calibrate_exits_0_or_1_for_any_numeric_flags(tally_path, source, flags):
    argv = ["calibrate", *(["--from-tally", str(tally_path)] if source == "tally" else ["--block", source])]
    argv += [f"{flag}={value}" for flag, value in flags]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse usage errors
            code = stop.code
    assert code in (0, 1), err.getvalue()
    assert (code == 0) == bool(out.getvalue())


COUNTER_NAMES = [counter_name("single", det) for det in Detector]
COUNTER_NAMES += [counter_name("pair", key) for key in PAIR_KEYS] + [counter_name("triple", key) for key in TRIPLE_KEYS]
TALLY_FIELDS = st.one_of(
    st.sampled_from(["", "0", "-1", "1.5", "nan", "-inf", "1_000", "9" * 400, "9" * 5000]),
    st.integers(-(10**6), 10**30).map(str),
    st.text(max_size=8),
)
TALLY_LINES = st.one_of(
    st.tuples(st.one_of(st.sampled_from(COUNTER_NAMES), st.text(max_size=8)), TALLY_FIELDS, TALLY_FIELDS).map(",".join),
    st.text(max_size=24),
)


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(0, 10**6), min_size=14, max_size=14),
    edits=st.lists(st.tuples(st.integers(0, 15), st.booleans(), TALLY_LINES), max_size=4),
    mean=st.sampled_from(["0.022", "0.3"]),
)
@example(counts=[0] * 14, edits=[], mean="0.022")
@example(counts=[1] * 14, edits=[(1, True, "single_A'," + "9" * 400 + ",1.0")], mean="0.022")
@example(counts=[1] * 14, edits=[(2, True, "single_A'',-5,1.0")], mean="0.022")
@example(counts=[1] * 14, edits=[(15, False, "single_A',7,1.0")], mean="0.022")
def test_calibrate_exits_0_or_1_for_any_tally_file(counts, edits, mean):
    # a well-formed tally with a few lines replaced or inserted, or the header broken
    tally = TallyTable(
        singles=dict(zip(Detector, counts[:4])),
        pairs=dict(zip(PAIR_KEYS, counts[4:10])),
        triples=dict(zip(TRIPLE_KEYS, counts[10:])),
        acquisition_s=1.0,
    )
    lines = tally_to_csv(tally).splitlines()
    for position, replace, line in edits:
        lines[position : position + replace] = [line]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tally.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["calibrate", "--from-tally", str(path), f"--mean-photon-number={mean}"])
    assert code in (0, 1), err.getvalue()
    assert (code == 0) == bool(out.getvalue())
