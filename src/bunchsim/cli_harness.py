"""Command-line front end wiring source -> routing -> detectors -> counting.

Subcommands: run (simulate one acquisition and write reports), compare
(same source stream through several routing models), calibrate (closed-form
fit of slot rate and efficiency), predict (closed-form rates, no simulation).

Configuration is a flat ``key = value`` text file with ``#`` comments; every
key can also be given as a command-line flag. Precedence: flag > file >
preset > built-in default. Exit codes: 0 success, 1 configuration error,
2 runtime failure. Progress goes to stderr; stdout carries only data.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import __version__
from .coincidence_unit import (
    COUNTERS,
    REFERENCE_PAIRS,
    CcuConfig,
    TallyTable,
    csv_text,
    tally_from_csv,
    tally_to_csv,
    tally_to_json,
)
from .detector_bank import DetectorConfig, write_events
from .photon_source import MAX_MEAN_PHOTON_NUMBER, SourceConfig
from .routing_models import RoutingModel
from .simulate import SimConfig, simulate_streams
from .statistics import (
    REFERENCE_BLOCKS,
    CorrelationResult,
    calibrate,
    equal_ratio_chisquare,
    g2_zero,
    predicted_rates,
)


class ConfigError(Exception):
    """All configuration violations found, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


# the built-in slot rate and efficiency: the closed-form fit of block 1
_BLOCK1 = calibrate(REFERENCE_BLOCKS["block1"])

_MODEL_NAMES = tuple(m.value for m in RoutingModel)
_EVENT_FORMATS = ("none", "text", "binary")
_REQUIRED = object()

# key -> (converter, default-or-required-marker, rule); a rule maps a value to
# True or the reason it is refused. The engine keys take their defaults and
# rules from the config that owns the value; acquisition_s is the source's
# duration, and the coincidence unit's acquisition too.
_SOURCE, _DETECTORS = SourceConfig.rules, DetectorConfig.rules
_CONFIG_FIELDS = {
    "model": (str, _REQUIRED, lambda v: v in _MODEL_NAMES or f"must be one of {', '.join(_MODEL_NAMES)}"),
    "mean_photon_number": (float, _REQUIRED, _SOURCE["mean_photon_number"]),
    "seed": (int, _REQUIRED, _SOURCE["seed"]),
    "slot_rate": (float, _BLOCK1.slot_rate, _SOURCE["slot_rate"]),
    "efficiency": (float, _BLOCK1.efficiency, _DETECTORS["efficiency"]),
    "dark_rate": (float, DetectorConfig.dark_rate, _DETECTORS["dark_rate"]),
    "dead_time_ps": (int, DetectorConfig.dead_time_ps, _DETECTORS["dead_time_ps"]),
    "jitter_ps": (float, DetectorConfig.jitter_sigma_ps, _DETECTORS["jitter_sigma_ps"]),
    "window_ps": (int, CcuConfig.window_ps, CcuConfig.rules["window_ps"]),
    "acquisition_s": (float, CcuConfig.acquisition_s, _SOURCE["duration"]),
    "output_dir": (str, "out", lambda v: True),
    "events_format": (str, "none", lambda v: v in _EVENT_FORMATS or f"must be one of {', '.join(_EVENT_FORMATS)}"),
}


def _sim_config(self) -> SimConfig:
    source = SourceConfig(self.mean_photon_number, self.slot_rate, self.acquisition_s, self.seed)
    detectors = DetectorConfig(self.efficiency, self.dead_time_ps, self.jitter_ps, self.dark_rate)
    return SimConfig(source, detectors, self.window_ps)


# one field per key of _CONFIG_FIELDS, typed by its converter
ExperimentConfig = dataclasses.make_dataclass(
    "ExperimentConfig",
    [(key, convert) for key, (convert, _, _) in _CONFIG_FIELDS.items()],
    namespace={"__module__": __name__, "sim_config": _sim_config},
    frozen=True,
)


def preset_values(name: str) -> dict:
    """Published-condition presets: the block's source strength and acquisition.

    Slot rate and efficiency stay at their defaults, the block-1 fit.
    """
    blocks = {"table1-block1": "block1", "table1-block2": "block2"}
    if name not in blocks:
        raise ConfigError([f"preset: unknown preset '{name}' (choices: {', '.join(sorted(blocks))})"])
    block = REFERENCE_BLOCKS[blocks[name]]
    return {"mean_photon_number": block.mean_photon_number, "acquisition_s": block.acquisition_s}


def _parse_lines(text: str):
    """(values, violations) from the flat key = value format."""
    values: dict = {}
    violations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            violations.append(f"line {lineno}: duplicate key '{key}'")
            continue
        values[key] = value
    return values, violations


def parse_config(text: str, overrides: dict | None = None, require_seed: bool = True) -> ExperimentConfig:
    """Validate the layered configuration, collecting every violation.

    overrides (typically command-line flags) take precedence over the file,
    which takes precedence over a preset named by either, which takes
    precedence over the defaults. require_seed=False serves the closed-form
    paths that never draw a random number.
    """
    file_values, violations = _parse_lines(text)
    overrides = dict(overrides or {})
    file_preset = file_values.pop("preset", None)
    preset = overrides.pop("preset", None) or file_preset

    merged: dict = {}
    if preset is not None:
        try:
            merged.update(preset_values(str(preset)))
        except ConfigError as err:
            violations.extend(err.violations)
    merged.update(file_values)
    merged.update(overrides)

    values = {}
    unparsable = set()
    for key, supplied in merged.items():
        if key not in _CONFIG_FIELDS:
            violations.append(f"{key}: unknown key")
            continue
        convert = _CONFIG_FIELDS[key][0]
        try:
            values[key] = convert(supplied)
        except (TypeError, ValueError, OverflowError):
            violations.append(f"{key}: cannot read {supplied!r} as {convert.__name__}")
            unparsable.add(key)

    for key, (_, default, rule) in _CONFIG_FIELDS.items():
        if key not in values:
            if key in unparsable:
                continue
            if default is _REQUIRED:
                if key == "seed" and not require_seed:
                    values[key] = 0
                else:
                    violations.append(f"{key}: required key is missing")
                continue
            values[key] = default
        verdict = rule(values[key])
        if isinstance(verdict, str):
            violations.append(f"{key}: {verdict}")
    if violations:
        raise ConfigError(violations)

    # the engine's joint rules, such as the slot count and the 2^53 ps stream
    cfg = ExperimentConfig(**values)
    try:
        cfg.sim_config()
    except ValueError as err:
        raise ConfigError([str(err)]) from err
    return cfg


# --- report writing -----------------------------------------------------------


def _analysis_rows(tally: TallyTable, corr: CorrelationResult):
    ref_counts = [tally.pairs[k] for k in REFERENCE_PAIRS]
    try:
        chisq, p = equal_ratio_chisquare(ref_counts)
    except ValueError:
        chisq, p = math.nan, math.nan
    return [
        ("g2_cross", corr.g2_cross),
        ("g2_same", corr.g2_same),
        ("bunching_fraction", corr.bunching_fraction),
        ("reference_pair_chisq", chisq),
        ("reference_pair_p", p),
    ]


def analysis_csv(tally: TallyTable, corr: CorrelationResult) -> str:
    return csv_text("quantity,value", _analysis_rows(tally, corr))


def _simulate_and_count(cfg: ExperimentConfig, models, workers: int, progress, on_piece=None):
    """Simulate cfg under each named model in one shared pass and count each run.

    Returns one tally per model, in the order of models; on_piece is
    simulate_streams'. The engine's config checks raise ConfigError, for
    configs that parse_config did not build.
    """
    if workers < 1:
        raise ConfigError(["workers: must be >= 1"])
    try:
        sim = cfg.sim_config()
    except ValueError as err:
        raise ConfigError([str(err)]) from err
    return simulate_streams(sim, models, workers=workers, progress=progress, on_piece=on_piece)


def run_experiment(cfg: ExperimentConfig, workers: int = 1, progress=None):
    """Simulate one acquisition; write tally.csv, analysis.csv and run.json.

    Returns (TallyTable, CorrelationResult). Outputs are deterministic for a
    fixed config and seed, whatever the worker count. An event dump writes
    the engine's counted pieces, unjoined, once the run has succeeded.
    """
    dump = cfg.events_format != "none"
    pieces = []
    on_piece = (lambda _, piece: pieces.append(piece)) if dump else None
    [tally] = _simulate_and_count(cfg, [cfg.model], workers, progress, on_piece)
    corr = g2_zero(tally, cfg.slot_rate)

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "tally.csv").write_text(tally_to_csv(tally))
    (out / "analysis.csv").write_text(analysis_csv(tally, corr))
    (out / "run.json").write_text(tally_to_json(tally))
    if dump:
        suffix = "txt" if cfg.events_format == "text" else "bin"
        write_events(out / f"events.{suffix}", pieces, fmt=cfg.events_format)
    return tally, corr


def comparison_csv(results) -> str:
    """Side-by-side counters plus Poisson z-scores for every model pair."""
    labels = [name for name, _, _ in results]
    pairs = [(i, j) for i in range(len(results)) for j in range(i + 1, len(results))]
    header = ",".join(["counter_name", *labels, *(f"z_{labels[i]}_vs_{labels[j]}" for i, j in pairs)])
    rows = []
    for name, group, key in COUNTERS:
        counts = [getattr(t, group)[key] for _, t, _ in results]
        z = [(a - b) / math.sqrt(a + b) if a + b else "" for a, b in ((counts[i], counts[j]) for i, j in pairs)]
        rows.append([name, *counts, *z])
    for quantity in ("bunching_fraction", "g2_cross", "g2_same"):
        rows.append([quantity, *(getattr(corr, quantity) for _, _, corr in results), *[""] * len(pairs)])
    return csv_text(header, rows)


def compare_models(cfg: ExperimentConfig, models, workers: int = 1, progress=None):
    """Run cfg's one acquisition under each model, whatever cfg.model says.

    One chunk pass serves every model (simulate_streams): the source is
    drawn once, then routed, split and detected per model with the same
    routing, detection and dark-count draws a standalone run of that model
    uses. Each column therefore equals that model's `run` tally, and
    differences between columns are pure model effects. A model named twice
    would only repeat its column, so it is refused.
    """
    models = list(models)
    if len(models) < 2:
        raise ConfigError(["compare: need at least two models"])
    bad = [f"compare: unknown model '{m}'" for m in models if m not in _MODEL_NAMES]
    bad += [f"compare: model '{m}' is named more than once" for m in dict.fromkeys(models) if models.count(m) > 1]
    if bad:
        raise ConfigError(bad)

    results = [
        (name, tally, g2_zero(tally, cfg.slot_rate))
        for name, tally in zip(models, _simulate_and_count(cfg, models, workers, progress))
    ]

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "comparison.csv").write_text(comparison_csv(results))
    return results


# --- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here that code means runtime failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser):
    parser.add_argument("--config", metavar="PATH", help="flat key = value configuration file")
    parser.add_argument("--preset", help="named preset: table1-block1 or table1-block2")
    choices = {"model": _MODEL_NAMES, "events_format": _EVENT_FORMATS}
    for key, (convert, _, _) in _CONFIG_FIELDS.items():
        parser.add_argument("--" + key.replace("_", "-"), type=convert, choices=choices.get(key))


def _config_from_args(args, require_seed: bool = True) -> ExperimentConfig:
    text = ""
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as err:
            raise ConfigError([f"config: cannot read {args.config}: {err}"]) from err
    overrides = {
        key: getattr(args, key)
        for key in (*_CONFIG_FIELDS, "preset")
        if getattr(args, key, None) is not None
    }
    return parse_config(text, overrides, require_seed=require_seed)


def _progress_printer(label: str):
    def progress(done: int, total: int):
        sys.stderr.write(f"\r{label}: chunk {done}/{total}")
        sys.stderr.flush()
        if done == total:
            sys.stderr.write("\n")

    return progress


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    progress = None if args.quiet else _progress_printer("run")
    tally, _ = run_experiment(cfg, workers=args.workers, progress=progress)
    sys.stdout.write(tally_to_csv(tally))
    sys.stderr.write(f"reports written to {cfg.output_dir}\n")
    return 0


def _cmd_compare(args) -> int:
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    if args.model is None:
        args.model = _MODEL_NAMES[0]  # parse_config requires one; compare_models runs each of models
    cfg = _config_from_args(args)
    progress = None if args.quiet else _progress_printer("compare")
    results = compare_models(cfg, models, workers=args.workers, progress=progress)
    sys.stdout.write(comparison_csv(results))
    sys.stderr.write(f"comparison written to {cfg.output_dir}\n")
    return 0


def _cmd_calibrate(args) -> int:
    if args.mean_photon_number is not None and not 0 < args.mean_photon_number <= MAX_MEAN_PHOTON_NUMBER:
        raise ConfigError([f"--mean-photon-number: must be in (0, {MAX_MEAN_PHOTON_NUMBER:.1f}]"])
    if args.from_tally and args.mean_photon_number is None:
        raise ConfigError(["--mean-photon-number is required with --from-tally"])
    try:
        if args.from_tally:
            targets = tally_from_csv(Path(args.from_tally).read_text(encoding="utf-8"))
        else:
            targets = REFERENCE_BLOCKS[args.block]
        result = calibrate(targets, args.mean_photon_number)
    except (OSError, ValueError) as err:  # an unreadable tally, or targets calibrate rejects
        raise ConfigError([f"calibrate: {err}"]) from err
    rows = [("slot_rate", result.slot_rate), ("efficiency", result.efficiency)]
    rows += [(f"residual_{name}", value) for name, value in result.residuals.items()]
    sys.stdout.write(csv_text("quantity,value", rows))
    return 0


def _cmd_predict(args) -> int:
    cfg = _config_from_args(args, require_seed=False)
    prediction = predicted_rates(
        RoutingModel(cfg.model),
        cfg.mean_photon_number,
        cfg.slot_rate,
        cfg.efficiency,
        cfg.dark_rate,
        window_ps=cfg.window_ps,
    )
    sys.stdout.write(csv_text("counter_name,rate_per_s", prediction.counters()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bunchsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one acquisition and write reports")
    _add_config_flags(p_run)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--quiet", action="store_true", help="suppress progress output")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="replay one source stream through several models")
    _add_config_flags(p_cmp)
    p_cmp.add_argument("--models", required=True, help="comma-separated model names (at least two, each once)")
    p_cmp.add_argument("--workers", type=int, default=1)
    p_cmp.add_argument("--quiet", action="store_true")
    p_cmp.set_defaults(func=_cmd_compare)

    p_cal = sub.add_parser("calibrate", help="closed-form slot-rate/efficiency fit")
    p_cal.add_argument("--block", choices=sorted(REFERENCE_BLOCKS), default="block1")
    p_cal.add_argument("--mean-photon-number", type=float, dest="mean_photon_number")
    p_cal.add_argument("--from-tally", metavar="PATH", help="calibrate from a tally.csv; acquisition read from rate_per_s")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_pred = sub.add_parser("predict", help="closed-form counter rates, no simulation")
    _add_config_flags(p_pred)
    p_pred.set_defaults(func=_cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        sys.stderr.write(str(err) + "\n")
        return 1
    except Exception as err:  # noqa: BLE001 - boundary: report, don't trace
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
