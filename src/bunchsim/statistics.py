"""Closed-form rate predictions, calibration and correlation estimators.

One description of each routing model (_sides) holds everything: the
detectors a slot lights fire independently, since a coherent state stays a
product of coherent states through the splitters. click_pattern_table gives
the exact per-slot probability of every click pattern at any mean photon
number nbar (saturation included, no dead time), and every predicted
counter is the slot rate R times the table's probability that all of its
detectors fire (plus darks). With x = nbar * eta / 4 and q = 1 - exp(-x),
that is R * q^k for a counter of k detectors under classical and
phase-basis routing.

Calibration inverts the table's first order in x in closed form (calibrate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coincidence_unit import (
    CROSS_SIDE_PAIRS,
    PAIR_KEYS,
    SAME_SIDE_PAIRS,
    TRIPLE_KEYS,
    CcuConfig,
    TallyTable,
    counter_name,
    counter_values,
)
from .detector_bank import Detector
from .routing_models import RoutingModel


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


def _sides(model: RoutingModel) -> tuple[int, ...]:
    """Bitmasks of the detectors a slot may light, each side equally likely.

    Classical and phase-basis routing (binomial at every n) light all four;
    bunching lights one side, picked by a fair coin.
    """
    return (0b0011, 0b1100) if model is RoutingModel.BUNCHING else (0b1111,)


def click_pattern_table(model: RoutingModel, mean_photon_number: float, efficiency: float) -> list[float]:
    """Entry m: per-slot P(exactly the detectors in bitmask m fire), bit d for Detector d.

    Saturating detection 1 - (1 - eta)^k detects each photon on its own, so
    the detectors a slot lights fire independently, each with
    q = 1 - exp(-nbar * eta / lit) on a side of lit detectors. Entries depend
    only on how many detectors fire, so exchangeable counters come out equal
    to the bit.
    """
    sides = _sides(model)
    lit = 4 // len(sides)
    x = mean_photon_number * efficiency / lit
    q, e = -math.expm1(-x), math.exp(-x)
    by_fired = [q**k * e ** (lit - k) for k in range(lit + 1)]
    return [sum(by_fired[m.bit_count()] for side in sides if m & ~side == 0) / len(sides) for m in range(16)]


# --- predictions -------------------------------------------------------------


@dataclass(frozen=True)
class RatePrediction:
    singles: dict
    pairs: dict
    triples: dict

    def counters(self):
        return counter_values(self)


def accidental_pair_rate(rate1: float, rate2: float, window_ps: int) -> float:
    """Uncorrelated-coincidence rate 2 * window * r1 * r2 (half-width window)."""
    return 2.0 * (window_ps * 1e-12) * rate1 * rate2


def predicted_rates(
    model: RoutingModel,
    mean_photon_number: float,
    slot_rate: float,
    efficiency: float,
    dark_rate: float,
    window_ps: int = CcuConfig.window_ps,
) -> RatePrediction:
    """Closed-form rates for every counter.

    Every counter is slot_rate times the per-slot probability, summed over
    click_pattern_table, that all of its detectors fire: exact at any mean
    photon number, with saturation but no dead time. Pair channels include
    dark-driven accidentals (photon x dark and dark x dark); photon-photon
    accidentals between different slots are excluded by the slot spacing.
    """
    table = click_pattern_table(model, mean_photon_number, efficiency)

    def fire(m: int) -> float:  # rate of slots in which every detector of bitmask m fires
        return slot_rate * sum(p for mask, p in enumerate(table) if mask & m == m)

    singles = {det: fire(1 << det) + dark_rate for det in Detector}
    acc = accidental_pair_rate(fire(1 << Detector.A1), dark_rate, window_ps) * 2.0
    acc += accidental_pair_rate(dark_rate, dark_rate, window_ps)
    pairs = {key: fire(sum(1 << det for det in key)) + acc for key in PAIR_KEYS}
    triples = {key: fire(sum(1 << det for det in key)) for key in TRIPLE_KEYS}
    return RatePrediction(singles, pairs, triples)


# --- calibration -------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    slot_rate: float
    efficiency: float
    residuals: dict = field(default_factory=dict)


def calibrate(targets: ReferenceBlock | TallyTable, mean_photon_number: float | None = None) -> CalibrationResult:
    """Fit slot rate and efficiency from measured singles and pair rates.

    targets is a ReferenceBlock or a TallyTable; its mean_photon_number is
    read only when mean_photon_number is None (a TallyTable has none).

    Uses the mean of the provided singles counters and the mean of the
    provided pair counters, and inverts the first order in x = nbar * eta / 4
    of the table's singles R * q and pairs R * q^2, q = 1 - exp(-x):

        eta = 4 * pair / (singles * nbar)      R = 4 * singles / (nbar * eta)

    Residuals map every provided counter to (predicted - observed) / observed,
    predicted by predicted_rates under the phase-basis model with no dark
    term, so the fitted aggregates show the fit's first-order bias: q/x - 1
    on the mean singles and (q/x)^2 - 1 on the mean pair (-0.16% and -0.32%
    at block 1).
    """
    if mean_photon_number is None and isinstance(targets, TallyTable):
        raise ValueError("calibrating a TallyTable needs mean_photon_number")
    nbar = targets.mean_photon_number if mean_photon_number is None else mean_photon_number
    if nbar <= 0:
        raise ValueError("mean_photon_number must be > 0 for calibration")
    if not targets.singles or not targets.pairs:
        raise ValueError("calibration needs at least one singles and one pair counter")
    acq = targets.acquisition_s
    if not 0 < acq < math.inf:
        raise ValueError(f"acquisition_s must be finite and > 0, got {acq}")
    s = float(np.mean(list(targets.singles.values()))) / acq
    p = float(np.mean(list(targets.pairs.values()))) / acq
    if not s > 0:
        raise ValueError(f"calibration needs a positive mean singles rate, got {s}")
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


def g2_zero(tally: TallyTable, slot_rate: float) -> CorrelationResult:
    """Window-based zero-delay correlation estimators from a tally.

    With per-slot probabilities P(X) = N_X / (R * T):

        g2_cross = P(A and B) / (P(A) * P(B)),  A = A' or A'', B = B' or B''
        g2_same  = same-side analogue from the A'A'' and B'B'' channels

    Zero singles on a side make the estimator undefined; that is reported as
    NaN rather than raised, so dark-only runs still produce a report.
    """
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


def chi_square_tail(k: int, x: float) -> float:
    """P(chi-square with k degrees of freedom >= x), k a positive integer.

    Q(k/2, x/2) is a finite sum for integer k (Abramowitz & Stegun 26.4.4
    and 26.4.5), with h = x/2:

        even k    e^-h * sum_{j < k/2} h^j / j!
        odd k     erfc(sqrt h) + e^-h * sum_{j < (k-1)/2} h^(j+1/2) / Gamma(j+3/2)

    Each term is the one before it times h / (j + 1) or h / (j + 3/2), so a
    large h underflows e^-h to 0 and no h^j can overflow into inf * 0.
    """
    h = x / 2
    if h == math.inf:  # e^-h * h would be 0 * inf
        return 0.0
    if k % 2:  # the sum starts at h^(1/2) / Gamma(3/2), and Gamma(3/2) = sqrt(pi) / 2
        q, offset = math.erfc(math.sqrt(h)), 1.5
        term = math.exp(-h) * math.sqrt(h) * (2 / math.sqrt(math.pi))
    else:
        q, offset = 0.0, 1.0
        term = math.exp(-h)
    for j in range(k // 2):
        q += term
        term *= h / (j + offset)
    return q


def equal_ratio_chisquare(counts) -> tuple[float, float]:
    """Chi-square statistic and p-value against 'all counters equal'."""
    obs = np.asarray(list(counts), dtype=float)
    if obs.size < 2 or obs.sum() == 0:
        raise ValueError("need at least two counters with events")
    # scipy.stats.chisquare's statistic, bit for bit; its p-value to within
    # rounding, from the closed-form tail in place of scipy's incomplete gamma
    expected = np.mean(obs, keepdims=True)
    stat = float(np.sum((obs - expected) ** 2 / expected))
    return stat, chi_square_tail(obs.size - 1, stat)


# --- scaling ------------------------------------------------------------------

MIN_COUNTS_FOR_FIT = 10


def scaling_check(tally_low: TallyTable, tally_high: TallyTable) -> dict[str, float]:
    """Fit counter-class scaling exponents between two mean photon numbers.

    exponent = ln(rate_high / rate_low) / ln(nbar_high / nbar_low) per class,
    computed on class means over counters with at least 10 counts in both
    tallies. Expected: singles 1, pairs 2, triples 3. Every key of the two
    config echoes but mean_photon_number and seed must agree.
    """
    cfg_low = tally_low.metadata.get("config")
    cfg_high = tally_high.metadata.get("config")
    if not cfg_low or not cfg_high:
        raise ValueError("tallies need config metadata for a scaling fit")
    for key in dict.fromkeys([*cfg_low, *cfg_high]):  # the echo's own order
        if key not in ("mean_photon_number", "seed") and cfg_low.get(key) != cfg_high.get(key):
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
