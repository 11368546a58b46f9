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
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .coincidence_unit import (
    PAIR_KEYS,
    REFERENCE_PAIRS,
    TRIPLE_KEYS,
    TallyTable,
    accumulate,
    counter_name,
    tally_from_csv,
    tally_to_csv,
    tally_to_json,
)
from .detector_bank import MAX_DARK_MEAN, Detector, DetectorConfig, write_events
from .photon_source import MAX_MEAN_PHOTON_NUMBER, MAX_SLOTS, SourceConfig
from .routing_models import RoutingModel
from .simulate import SimConfig, config_metadata, simulate_streams
from .statistics import (
    REFERENCE_BLOCKS,
    CorrelationResult,
    ReferenceBlock,
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


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    mean_photon_number: float
    seed: int
    slot_rate: float
    efficiency: float
    dark_rate: float
    dead_time_ps: int
    jitter_ps: float
    window_ps: int
    acquisition_s: float
    output_dir: str
    events_format: str

    def sim_config(self) -> SimConfig:
        return SimConfig(
            source=SourceConfig(
                mean_photon_number=self.mean_photon_number,
                slot_rate=self.slot_rate,
                duration=self.acquisition_s,
                seed=self.seed,
            ),
            detectors=DetectorConfig(
                efficiency=self.efficiency,
                dead_time_ps=self.dead_time_ps,
                jitter_sigma_ps=self.jitter_ps,
                dark_rate=self.dark_rate,
            ),
            model=RoutingModel(self.model),
            window_ps=self.window_ps,
        )


@functools.lru_cache(maxsize=1)
def _block1_calibration():
    return calibrate(REFERENCE_BLOCKS["block1"])


def _default_slot_rate() -> float:
    return _block1_calibration().slot_rate


def _default_efficiency() -> float:
    return _block1_calibration().efficiency


_MODEL_NAMES = tuple(m.value for m in RoutingModel)
_EVENT_FORMATS = ("none", "text", "binary")
_REQUIRED = object()

# key -> (converter, default-or-required-marker, range check); picosecond
# values stay below 2^53, where float64 arithmetic on them is still exact, and
# an acquisition is at least one picosecond, the timestamp resolution
_CONFIG_FIELDS = {
    "model": (str, _REQUIRED, lambda v: v in _MODEL_NAMES or f"must be one of {', '.join(_MODEL_NAMES)}"),
    "mean_photon_number": (float, _REQUIRED, lambda v: 0 <= v <= MAX_MEAN_PHOTON_NUMBER
                           or f"must be in [0, {MAX_MEAN_PHOTON_NUMBER:.1f}]"),
    "seed": (int, _REQUIRED, lambda v: v >= 0 or "must be >= 0"),
    "slot_rate": (float, _default_slot_rate, lambda v: 0 < v < math.inf or "must be finite and > 0"),
    "efficiency": (float, _default_efficiency, lambda v: 0 <= v <= 1 or "must be in [0, 1]"),
    "dark_rate": (float, 27.0, lambda v: 0 <= v < math.inf or "must be finite and >= 0"),
    "dead_time_ps": (int, 22_000, lambda v: 0 <= v < 2**53 or "must be in [0, 2^53)"),
    "jitter_ps": (float, 350.0, lambda v: 0 <= v < 2**53 or "must be in [0, 2^53)"),
    "window_ps": (int, 5_000, lambda v: 0 < v < 2**53 or "must be in (0, 2^53)"),
    "acquisition_s": (float, 1.0, lambda v: 1e-12 <= v < math.inf or "must be finite and >= 1e-12"),
    "output_dir": (str, "out", lambda v: True),
    "events_format": (str, "none", lambda v: v in _EVENT_FORMATS or f"must be one of {', '.join(_EVENT_FORMATS)}"),
}


def preset_values(name: str) -> dict:
    """Published-condition presets: block calibration plus the block's source strength."""
    blocks = {"table1-block1": "block1", "table1-block2": "block2"}
    if name not in blocks:
        raise ConfigError([f"preset: unknown preset '{name}' (choices: {', '.join(sorted(blocks))})"])
    cal = _block1_calibration()
    return {
        "mean_photon_number": REFERENCE_BLOCKS[blocks[name]].mean_photon_number,
        "acquisition_s": REFERENCE_BLOCKS[blocks[name]].acquisition_s,
        "dark_rate": 27.0,
        "slot_rate": cal.slot_rate,
        "efficiency": cal.efficiency,
    }


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
    preset = overrides.pop("preset", None) or file_values.pop("preset", None)

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

    valid = set()
    for key, (_, default, check) in _CONFIG_FIELDS.items():
        if key not in values:
            if key in unparsable:
                continue
            if default is _REQUIRED:
                if key == "seed" and not require_seed:
                    values[key] = 0
                else:
                    violations.append(f"{key}: required key is missing")
                continue
            values[key] = default() if callable(default) else default
        verdict = check(values[key])
        if verdict is True:
            valid.add(key)
        else:
            violations.append(f"{key}: {verdict}")

    # the limits of photon_source.slot_count and of numpy's Poisson sampler
    if {"slot_rate", "acquisition_s"} <= valid and values["slot_rate"] * values["acquisition_s"] > MAX_SLOTS:
        violations.append("acquisition_s: acquisition_s * slot_rate must not exceed 2^53 slots")
    if {"dark_rate", "acquisition_s"} <= valid and values["dark_rate"] * values["acquisition_s"] > MAX_DARK_MEAN:
        violations.append(f"dark_rate: dark_rate * acquisition_s must not exceed {MAX_DARK_MEAN:.4g}")

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(**values)


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
    lines = ["quantity,value"]
    lines.extend(f"{name},{value!r}" for name, value in _analysis_rows(tally, corr))
    return "\n".join(lines) + "\n"


def _simulate_and_count(cfg: ExperimentConfig, models, workers: int, progress):
    """Simulate cfg under each named model in one shared pass and count each run.

    Returns [(streams, tally)] in the order of models; each run.json metadata
    carries the package version. Engine-side config checks raise ConfigError.
    """
    try:
        sims = [dataclasses.replace(cfg, model=name).sim_config() for name in models]
    except ValueError as err:
        raise ConfigError([str(err)]) from err
    runs = simulate_streams(sims, workers=workers, progress=progress)
    counted = []
    for sim, (streams, metadata) in zip(sims, runs):
        metadata["version"] = __version__
        counted.append((streams, accumulate(streams, sim.ccu, metadata=metadata)))
    return counted


def run_experiment(cfg: ExperimentConfig, workers: int = 1, progress=None):
    """Simulate one acquisition; write tally.csv, analysis.csv and run.json.

    Returns (TallyTable, CorrelationResult). Outputs are deterministic for a
    fixed config and seed, whatever the worker count.
    """
    [(streams, tally)] = _simulate_and_count(cfg, [cfg.model], workers, progress)
    corr = g2_zero(tally, cfg.slot_rate)

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "tally.csv").write_text(tally_to_csv(tally))
    (out / "analysis.csv").write_text(analysis_csv(tally, corr))
    (out / "run.json").write_text(tally_to_json(tally))
    if cfg.events_format != "none":
        suffix = "txt" if cfg.events_format == "text" else "bin"
        write_events(out / f"events.{suffix}", streams, fmt=cfg.events_format)
    return tally, corr


def _unique_labels(names):
    counts = {}
    total = {n: names.count(n) for n in names}
    labels = []
    for n in names:
        if total[n] == 1:
            labels.append(n)
        else:
            counts[n] = counts.get(n, 0) + 1
            labels.append(f"{n}_{counts[n]}")
    return labels


def comparison_csv(results) -> str:
    """Side-by-side counters plus Poisson z-scores for every model pair."""
    names = [name for name, _, _ in results]
    labels = _unique_labels(names)
    pairs = [(i, j) for i in range(len(results)) for j in range(i + 1, len(results))]
    header = ["counter_name", *labels]
    header += [f"z_{labels[i]}_vs_{labels[j]}" for i, j in pairs]
    lines = [",".join(header)]

    counter_rows = []
    for det in Detector:
        counter_rows.append((counter_name("single", det), [t.singles[det] for _, t, _ in results]))
    for key in PAIR_KEYS:
        counter_rows.append((counter_name("pair", key), [t.pairs[key] for _, t, _ in results]))
    for key in TRIPLE_KEYS:
        counter_rows.append((counter_name("triple", key), [t.triples[key] for _, t, _ in results]))
    for name, counts in counter_rows:
        cells = [name, *(str(c) for c in counts)]
        for i, j in pairs:
            a, b = counts[i], counts[j]
            cells.append(repr((a - b) / math.sqrt(a + b)) if a + b else "")
        lines.append(",".join(cells))

    for quantity in ("bunching_fraction", "g2_cross", "g2_same"):
        cells = [quantity, *(repr(getattr(corr, quantity)) for _, _, corr in results)]
        cells += [""] * len(pairs)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def compare_models(cfg: ExperimentConfig, models, workers: int = 1, progress=None):
    """Replay the same seeded source stream through each model.

    One chunk pass serves every model: the source is drawn once, then
    routed, split and detected per model with the same routing, detection
    and dark-count draws a standalone run of that model uses. Each column
    therefore equals that model's `run` tally, and differences between
    columns are pure model effects.
    """
    models = list(models)
    if len(models) < 2:
        raise ConfigError(["compare: need at least two models"])
    bad = [m for m in models if m not in _MODEL_NAMES]
    if bad:
        raise ConfigError([f"compare: unknown model '{m}'" for m in bad])

    results = [
        (name, tally, g2_zero(tally, cfg.slot_rate))
        for name, (_, tally) in zip(models, _simulate_and_count(cfg, models, workers, progress))
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
        args.model = _MODEL_NAMES[0]  # base config; compare_models sets each run's model
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
            tally = tally_from_csv(Path(args.from_tally).read_text(encoding="utf-8"), args.acquisition_s)
            targets = ReferenceBlock(
                mean_photon_number=args.mean_photon_number,
                acquisition_s=tally.acquisition_s,
                singles=tally.singles,
                pairs=tally.pairs,
                triples=tally.triples,
            )
        else:
            targets = REFERENCE_BLOCKS[args.block]
        result = calibrate(targets, args.mean_photon_number)
    except (OSError, ValueError) as err:  # an unreadable tally, or targets calibrate rejects
        raise ConfigError([f"calibrate: {err}"]) from err
    lines = ["quantity,value"]
    lines.append(f"slot_rate,{result.slot_rate!r}")
    lines.append(f"efficiency,{result.efficiency!r}")
    lines.extend(f"residual_{name},{value!r}" for name, value in result.residuals.items())
    sys.stdout.write("\n".join(lines) + "\n")
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
        exact=args.exact,
    )
    lines = ["counter_name,rate_per_s"]
    lines.extend(f"{name},{rate!r}" for name, rate in prediction.counters())
    sys.stdout.write("\n".join(lines) + "\n")
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
    p_cmp.add_argument("--models", required=True, help="comma-separated model names (at least two)")
    p_cmp.add_argument("--workers", type=int, default=1)
    p_cmp.add_argument("--quiet", action="store_true")
    p_cmp.set_defaults(func=_cmd_compare)

    p_cal = sub.add_parser("calibrate", help="closed-form slot-rate/efficiency fit")
    p_cal.add_argument("--block", choices=sorted(REFERENCE_BLOCKS), default="block1")
    p_cal.add_argument("--mean-photon-number", type=float, dest="mean_photon_number")
    p_cal.add_argument("--from-tally", metavar="PATH", help="calibrate from a tally.csv instead")
    p_cal.add_argument("--acquisition-s", type=float, dest="acquisition_s", default=1.0)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_pred = sub.add_parser("predict", help="closed-form counter rates, no simulation")
    _add_config_flags(p_pred)
    p_pred.add_argument("--exact", action="store_true", help="exact per-slot click probabilities at any mean; no dead time")
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
