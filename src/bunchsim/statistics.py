"""Closed-form rate predictions, calibration and correlation estimators.

Leading-order rates for a Poisson source at mean photon number nbar, slot
rate R and detector efficiency eta:

    singles (each detector)   R * nbar * eta / 4            + dark_rate
    pair channel {x, y}       R * (nbar^2 / 2) * eta^2 * P2 + dark accidentals
    triple channel {x, y, z}  R * (nbar^3 / 6) * eta^3 * P3

P2 and P3 are detector-level outcome probabilities obtained by composing the
routing-model enumeration with the exact second-splitter binomial split;
they are never hand-coded. Inverting the first two relations gives the
calibration closed forms: pair/singles = nbar * eta / 4 fixes eta, then the
singles rate fixes R.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _special

from .coincidence_unit import (
    CROSS_SIDE_PAIRS,
    PAIR_KEYS,
    SAME_SIDE_PAIRS,
    TRIPLE_KEYS,
    TallyTable,
    counter_name,
)
from .detector_bank import Detector
from .routing_models import RoutingModel, enumerate_distribution

NBAR_SMALL_LIMIT = 0.1
DEFAULT_WINDOW_PS = 5_000


# --- reference measurement blocks -------------------------------------------
#
# Two published 1 s acquisition blocks from the tabletop experiment this
# package reproduces, used for calibration and as regression targets.


@dataclass(frozen=True)
class ReferenceBlock:
    mean_photon_number: float
    acquisition_s: float
    singles: dict
    pairs: dict
    triples: dict


REFERENCE_BLOCKS = {
    "block1": ReferenceBlock(
        mean_photon_number=0.022,
        acquisition_s=1.0,
        singles={
            Detector.A1: 250877.8,
            Detector.A2: 250259.1,
            Detector.B1: 250441.5,
            Detector.B2: 250316.4,
        },
        pairs={
            (Detector.A1, Detector.A2): 808.72,
            (Detector.B1, Detector.B2): 803.51,
            (Detector.A1, Detector.B1): 798.81,
            (Detector.A1, Detector.B2): 800.58,
        },
        triples={
            (Detector.A1, Detector.A2, Detector.B1): 2.69,
            (Detector.A1, Detector.A2, Detector.B2): 2.25,
            (Detector.A1, Detector.B1, Detector.B2): 2.18,
            (Detector.A2, Detector.B1, Detector.B2): 2.1,
        },
    ),
    "block2": ReferenceBlock(
        mean_photon_number=0.044,
        acquisition_s=1.0,
        singles={
            Detector.A1: 508592.1,
            Detector.A2: 507361.8,
            Detector.B1: 502778.7,
            Detector.B2: 504008.3,
        },
        pairs={
            (Detector.A1, Detector.A2): 3440.36,
            (Detector.B1, Detector.B2): 3497.19,
            (Detector.A1, Detector.B1): 3483.59,
            (Detector.A1, Detector.B2): 3478.35,
        },
        triples={
            (Detector.A1, Detector.A2, Detector.B1): 16.17,
            (Detector.A1, Detector.A2, Detector.B2): 16.13,
            (Detector.A1, Detector.B1, Detector.B2): 16.53,
            (Detector.A2, Detector.B1, Detector.B2): 16.36,
        },
    ),
}


# --- outcome probabilities ---------------------------------------------------


def detector_outcome_distribution(model: RoutingModel, n: int) -> dict[tuple, float]:
    """Exact distribution of the 4-detector photon occupancy for an n-photon slot.

    Composes the first-splitter routing distribution with the exact binomial
    split of each port onto its detector pair. Dyadic probabilities, so the
    composition is exact in floats.
    """
    out: dict[tuple, float] = {}
    for (p1, p2), p_route in enumerate_distribution(model, n).items():
        for a1 in range(p1 + 1):
            w_a = math.comb(p1, a1) / 2.0**p1
            for b1 in range(p2 + 1):
                w_b = math.comb(p2, b1) / 2.0**p2
                key = (a1, p1 - a1, b1, p2 - b1)
                out[key] = out.get(key, 0.0) + p_route * w_a * w_b
    return out


def pair_pattern_probability(model: RoutingModel, pair) -> float:
    """P2: probability a 2-photon slot lands exactly one photon on each of `pair`."""
    dist = detector_outcome_distribution(model, 2)
    want = [1 if det in pair else 0 for det in Detector]
    return dist.get(tuple(want), 0.0)


def triple_pattern_probability(model: RoutingModel, triple) -> float:
    """P3: probability a 3-photon slot lands exactly one photon on each of `triple`."""
    dist = detector_outcome_distribution(model, 3)
    want = [1 if det in triple else 0 for det in Detector]
    return dist.get(tuple(want), 0.0)


# --- predictions -------------------------------------------------------------


@dataclass(frozen=True)
class RatePrediction:
    singles: dict
    pairs: dict
    triples: dict

    def counters(self):
        for det in Detector:
            yield counter_name("single", det), self.singles[det]
        for key in PAIR_KEYS:
            yield counter_name("pair", key), self.pairs[key]
        for key in TRIPLE_KEYS:
            yield counter_name("triple", key), self.triples[key]


def accidental_pair_rate(rate1: float, rate2: float, window_ps: int) -> float:
    """Uncorrelated-coincidence rate 2 * window * r1 * r2 (half-width window)."""
    return 2.0 * (window_ps * 1e-12) * rate1 * rate2


def _exact_slot_probabilities(model: RoutingModel, nbar: float, efficiency: float):
    """Per-slot click probabilities from the full truncated Poisson sum.

    For each photon number up to the enumeration bound, composes the exact
    outcome distribution with saturating click probabilities
    1 - (1 - eta)^k; a pair (triple) fires when both (all three) of its
    detectors click, whatever the other detectors do.
    """
    from .routing_models import ENUM_MAX_N

    singles = {det: 0.0 for det in Detector}
    pairs = {key: 0.0 for key in PAIR_KEYS}
    triples = {key: 0.0 for key in TRIPLE_KEYS}
    weight = math.exp(-nbar)
    for n in range(1, ENUM_MAX_N + 1):
        weight *= nbar / n  # Poisson pmf built iteratively
        if weight < 1e-18:
            break
        for occupancy, p_out in detector_outcome_distribution(model, n).items():
            click = [1.0 - (1.0 - efficiency) ** k for k in occupancy]
            w = weight * p_out
            for det in Detector:
                singles[det] += w * click[det]
            for key in pairs:
                pairs[key] += w * click[key[0]] * click[key[1]]
            for key in triples:
                triples[key] += w * click[key[0]] * click[key[1]] * click[key[2]]
    return singles, pairs, triples


def predicted_rates(
    model: RoutingModel,
    mean_photon_number: float,
    slot_rate: float,
    efficiency: float,
    dark_rate: float,
    window_ps: int = DEFAULT_WINDOW_PS,
    exact: bool = False,
) -> RatePrediction:
    """Closed-form rates for every counter.

    Leading-order by default (one Poisson term per counter class); with
    exact=True the full truncated Poisson sum with saturating click
    probabilities is used instead. Pair channels include dark-driven
    accidentals (photon x dark and dark x dark); photon-photon accidentals
    between different slots are excluded by the slot spacing and do not
    appear at leading order.
    """
    if mean_photon_number > NBAR_SMALL_LIMIT:
        warnings.warn(
            f"mean photon number {mean_photon_number} is outside the dilute regime; "
            "predictions degrade",
            stacklevel=2,
        )
    nbar = mean_photon_number
    if exact:
        p_single, p_pair, p_triple = _exact_slot_probabilities(model, nbar, efficiency)
        photon_single = slot_rate * p_single[Detector.A1]
        singles = {det: slot_rate * p_single[det] + dark_rate for det in Detector}
        pair_photon = {key: slot_rate * p_pair[key] for key in PAIR_KEYS}
        triples = {key: slot_rate * p_triple[key] for key in TRIPLE_KEYS}
    else:
        photon_single = slot_rate * nbar * efficiency / 4.0
        singles = {det: photon_single + dark_rate for det in Detector}
        pair_scale = slot_rate * (nbar**2 / 2.0) * efficiency**2
        pair_photon = {
            key: pair_scale * pair_pattern_probability(model, key) for key in PAIR_KEYS
        }
        triple_scale = slot_rate * (nbar**3 / 6.0) * efficiency**3
        triples = {
            key: triple_scale * triple_pattern_probability(model, key) for key in TRIPLE_KEYS
        }
    pairs = {}
    for key in PAIR_KEYS:
        acc = accidental_pair_rate(photon_single, dark_rate, window_ps) * 2.0
        acc += accidental_pair_rate(dark_rate, dark_rate, window_ps)
        pairs[key] = pair_photon[key] + acc
    return RatePrediction(singles, pairs, triples)


# --- calibration -------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    slot_rate: float
    efficiency: float
    residuals: dict = field(default_factory=dict)


def calibrate(targets: ReferenceBlock, mean_photon_number: float | None = None) -> CalibrationResult:
    """Fit slot rate and efficiency from measured singles and pair rates.

    Uses the mean of the provided singles counters and the mean of the
    provided pair counters:

        eta = 4 * pair / (singles * nbar)      R = 4 * singles / (nbar * eta)

    so predictions round-trip those two aggregates exactly. Residuals map
    every provided counter to (predicted - observed) / observed under the
    phase-basis model with no dark term.
    """
    nbar = targets.mean_photon_number if mean_photon_number is None else mean_photon_number
    if nbar <= 0:
        raise ValueError("mean_photon_number must be > 0 for calibration")
    if not targets.singles or not targets.pairs:
        raise ValueError("calibration needs at least one singles and one pair counter")
    acq = targets.acquisition_s
    s = float(np.mean(list(targets.singles.values()))) / acq
    p = float(np.mean(list(targets.pairs.values()))) / acq
    eta = 4.0 * p / (s * nbar)
    if not 0.0 < eta <= 1.0:
        raise ValueError(
            f"targets are inconsistent: fitted efficiency {eta:.4f} lies outside (0, 1]"
        )
    slot_rate = 4.0 * s / (nbar * eta)
    predicted = predicted_rates(RoutingModel.PHASE_BASIS, nbar, slot_rate, eta, dark_rate=0.0)

    def relative(pred: float, observed: float) -> float:
        rate = observed / acq
        if rate == 0:
            return math.inf if pred else 0.0
        return (pred - rate) / rate

    residuals = {}
    for det, observed in targets.singles.items():
        residuals[counter_name("single", det)] = relative(predicted.singles[det], observed)
    for key, observed in targets.pairs.items():
        residuals[counter_name("pair", key)] = relative(predicted.pairs[key], observed)
    for key, observed in targets.triples.items():
        residuals[counter_name("triple", key)] = relative(predicted.triples[key], observed)
    return CalibrationResult(slot_rate=slot_rate, efficiency=eta, residuals=residuals)


# --- correlation estimators ----------------------------------------------------


@dataclass(frozen=True)
class CorrelationResult:
    g2_cross: float
    g2_same: float
    bunching_fraction: float


def bunching_fraction(tally: TallyTable) -> float:
    """Fraction of detected photon pairs that bunched at the first splitter.

    A bunched pair reaches its same-side detector pair only when the second
    splitter separates the two photons, which happens half the time; a split
    pair always feeds opposite sides. Doubling the same-side counts undoes
    that 50% loss, so equal counters (the published signature) give 1/2.
    """
    same = sum(tally.pairs[k] for k in SAME_SIDE_PAIRS)
    cross = sum(tally.pairs[k] for k in CROSS_SIDE_PAIRS)
    denom = 2.0 * same + cross
    if denom == 0:
        return math.nan
    return 2.0 * same / denom


def g2_zero(tally: TallyTable, slot_rate: float, config=None) -> CorrelationResult:
    """Window-based zero-delay correlation estimators from a tally.

    With per-slot probabilities P(X) = N_X / (R * T):

        g2_cross = P(A and B) / (P(A) * P(B)),  A = A' or A'', B = B' or B''
        g2_same  = same-side analogue from the A'A'' and B'B'' channels

    Zero singles on a side make the estimator undefined; that is reported as
    NaN rather than raised, so dark-only runs still produce a report.
    """
    if config is not None and config.acquisition_s != tally.acquisition_s:
        raise ValueError("config acquisition does not match the tally")
    n_slots = slot_rate * tally.acquisition_s
    s = tally.singles
    n_a = s[Detector.A1] + s[Detector.A2]
    n_b = s[Detector.B1] + s[Detector.B2]
    cross = sum(tally.pairs[k] for k in CROSS_SIDE_PAIRS)
    g2_cross = cross * n_slots / (n_a * n_b) if n_a > 0 and n_b > 0 else math.nan
    same_num = tally.pairs[SAME_SIDE_PAIRS[0]] + tally.pairs[SAME_SIDE_PAIRS[1]]
    same_den = (
        s[Detector.A1] * s[Detector.A2] + s[Detector.B1] * s[Detector.B2]
    )
    g2_same = same_num * n_slots / same_den if same_den > 0 else math.nan
    return CorrelationResult(
        g2_cross=g2_cross, g2_same=g2_same, bunching_fraction=bunching_fraction(tally)
    )


def equal_ratio_chisquare(counts) -> tuple[float, float]:
    """Chi-square statistic and p-value against 'all counters equal'."""
    obs = np.asarray(list(counts), dtype=float)
    if obs.size < 2 or obs.sum() == 0:
        raise ValueError("need at least two counters with events")
    # scipy.stats.chisquare's own arithmetic, without importing scipy.stats
    expected = np.mean(obs, keepdims=True)
    stat = np.sum((obs - expected) ** 2 / expected)
    return float(stat), float(_special.chdtrc(obs.size - 1.0, stat))


# --- scaling ------------------------------------------------------------------

MIN_COUNTS_FOR_FIT = 10

_SCALING_CONFIG_KEYS = (
    "model",
    "slot_rate",
    "efficiency",
    "dark_rate",
    "dead_time_ps",
    "pulse_width_ps",
    "jitter_sigma_ps",
    "window_ps",
    "acquisition_s",
)


def scaling_check(tally_low: TallyTable, tally_high: TallyTable) -> dict[str, float]:
    """Fit counter-class scaling exponents between two mean photon numbers.

    exponent = ln(rate_high / rate_low) / ln(nbar_high / nbar_low) per class,
    computed on class means over counters with at least 10 counts in both
    tallies. Expected: singles 1, pairs 2, triples 3.
    """
    cfg_low = tally_low.metadata.get("config")
    cfg_high = tally_high.metadata.get("config")
    if not cfg_low or not cfg_high:
        raise ValueError("tallies need config metadata for a scaling fit")
    for key in _SCALING_CONFIG_KEYS:
        if cfg_low.get(key) != cfg_high.get(key):
            raise ValueError(f"tallies differ in {key}; only mean_photon_number may change")
    n_low = cfg_low["mean_photon_number"]
    n_high = cfg_high["mean_photon_number"]
    if n_low == n_high:
        raise ValueError("tallies have the same mean photon number")
    log_n = math.log(n_high / n_low)

    def class_exponent(low: dict, high: dict) -> float:
        usable = [k for k in low if low[k] >= MIN_COUNTS_FOR_FIT and high[k] >= MIN_COUNTS_FOR_FIT]
        if not usable:
            return math.nan
        lo = np.mean([low[k] / tally_low.acquisition_s for k in usable])
        hi = np.mean([high[k] / tally_high.acquisition_s for k in usable])
        return math.log(hi / lo) / log_n

    return {
        "singles": class_exponent(tally_low.singles, tally_high.singles),
        "pairs": class_exponent(tally_low.pairs, tally_high.pairs),
        "triples": class_exponent(tally_low.triples, tally_high.triples),
    }
