"""Odds that an exact simulator passes criterion 3's triple band, criterion 4 and criterion 7.

Criterion 3 (tests/test_acceptance.py) asks each of the four triple counters
of one block-1 run to land within 35% of 2.3 counts. At ~2.6 expected counts
a counter holds only the values 2 and 3 in that band, so even a simulator
whose triples follow the click-pattern table exactly fails it often. The
odds here are for such a simulator with no dead time.

A triple counter counts the slots in which its three detectors fire: those
in which exactly its three fire, X_i, plus those in which all four fire, W,
which the four counters share. Over N slots, with disjoint patterns,

    T_i = X_i + W,  X_i ~ Poisson(N * table[triple i]),  W ~ Poisson(N * table[0b1111])

all five independent, so the counters are correlated through W alone.

Criterion 4 asks two block-2 runs, classical and phase-basis, each for an
equal-ratio p > 0.01 over the four reference pair counters, one block-1
bunching run for p < 1e-6 over the same counters, and each of that run's
four cross-side pair counters to lie at or below the Poisson (1 - 1e-4)
quantile of its predicted mean. The split models' reference pair means are
equal, 3191 each in 1 s, which is the null the two tests hold; at such
means chi_square_tail(3, .) is close to its continuous limit, so each passes
with odds 1 - 0.01. The bunching run's same-side means, 1596, against
cross-side ones of 0.135 put its p far below 1e-6, with odds ~1. Each
cross-side counter, ~ Poisson(0.1348), lies at or below its ceiling, 3,
with odds 1 - 1.2e-5. The parts are independent runs, or counters treated
as independent, so the odds are their product, ~0.980.

Criterion 7 runs 1 s of darks alone, 27 /s per detector, and asks each of
the four dark singles, ~ Poisson(27), to lie within 27 +/- 16, and each of
the six pair counters to lie at or below the Poisson (1 - 1e-4) quantile of
the accidental mean 2 * (5 ns) * 27^2 * (1 s) = 7.3e-6. That quantile is 0,
so every pair counter must read 0. The odds treat the singles and the pair
counters as independent, which leaves out only the pair counters' slight
rise with the singles.

test_simulation_matches_predictions (tests/test_statistics.py) asks each of
the 14 counters of one run to lie in the central (1 - 1e-4) Poisson interval
of predicted_rates' mean, or at 0 where that mean is 0. predicted_rates
gives triples no dark term, but a dark within 2 * window of a slot in which
the other two detectors of a triple counter fire makes a triple: at the
triple width 2 * window, accidental_pair_rate(pair rate, dark rate,
2 * window) of them per second. Under bunching a slot lights one side only,
so these are a triple counter's only counts, and its band is (0, 0). The
odds take every counter as an independent Poisson count with that term
added, which leaves out the singles' and pairs' shared clicks; the triples
make all but ~1e-3 of the shortfall.
"""

from __future__ import annotations

import math

from scipy import stats

from bunchsim.coincidence_unit import COUNTERS, CROSS_SIDE_PAIRS, PAIR_KEYS, REFERENCE_PAIRS, TRIPLE_KEYS
from bunchsim.detector_bank import Detector
from bunchsim.routing_models import RoutingModel
from bunchsim.statistics import (
    REFERENCE_BLOCKS,
    accidental_pair_rate,
    calibrate,
    click_pattern_table,
    predicted_rates,
)

TARGET, REL = 2.3, 0.35  # criterion 3's triple band: |T - 2.3| <= 0.35 * 2.3
DARK_RATE, DARK_BAND = 27.0, 16  # criterion 7's singles band: |S - 27| <= 16 in 1 s
PAIR_QUANTILE, WINDOW_PS = 1 - 1e-4, 5_000  # criterion 7's pair ceiling, and criterion 4's
PREDICTION_MASS = 1 - 1e-4  # test_simulation_matches_predictions' central Poisson interval
EQUAL_RATIO_P, BUNCHING_P = 0.01, 1e-6  # criterion 4: p above the one for the split models, below the other


def pmf(k, mu):
    return math.exp(-mu) * mu**k / math.factorial(k)


def poisson_ceiling(mu):
    """The least c with P(Poisson(mu) <= c) >= PAIR_QUANTILE, as scipy's poisson.ppf."""
    ceiling, cdf = 0, pmf(0, mu)
    while cdf < PAIR_QUANTILE:
        ceiling += 1
        cdf += pmf(ceiling, mu)
    return ceiling


def band_odds(own, shared):
    """P(every T_i = X_i + W lies in the band), X_i ~ Poisson(own[i]), W ~ Poisson(shared)."""
    band = [t for t in range(math.floor(TARGET * (1 + REL)) + 1) if abs(t - TARGET) <= REL * TARGET]
    odds = 0.0
    for w in range(max(band) + 1):
        odds += pmf(w, shared) * math.prod(sum(pmf(t - w, mu) for t in band if t >= w) for mu in own)
    return odds


def block1_means():
    """(means of X_i, one per triple counter, mean of W) for criterion 3's run at the block-1 fit."""
    block = REFERENCE_BLOCKS["block1"]
    fit = calibrate(block)
    table = click_pattern_table(RoutingModel.PHASE_BASIS, block.mean_photon_number, fit.efficiency)
    slots = fit.slot_rate * block.acquisition_s
    own = [slots * table[sum(1 << det for det in key)] for key in TRIPLE_KEYS]
    return own, slots * table[0b1111]


def dark_floor_means():
    """(mean of each dark single, accidental mean of each pair counter) of criterion 7's 1 s run."""
    return DARK_RATE, accidental_pair_rate(DARK_RATE, DARK_RATE, WINDOW_PS)


def dark_floor_odds(single, accidental):
    """P(four Poisson(single) singles lie in the band and six Poisson(accidental)
    pair counters at or below their ceiling), all ten independent."""
    singles = sum(pmf(k, single) for k in range(math.ceil(single - DARK_BAND), math.floor(single + DARK_BAND) + 1))
    pairs = sum(pmf(k, accidental) for k in range(poisson_ceiling(accidental) + 1))
    return singles ** len(Detector) * pairs ** len(PAIR_KEYS)


def criterion4_means():
    """(per block-2 run, classical then phase-basis, its four reference pair
    means; the bunching run's six pair means) of criterion 4's 1 s runs at
    the block-1 fit, 27 darks/s per detector."""
    fit = calibrate(REFERENCE_BLOCKS["block1"])

    def pairs(model, mean):
        return predicted_rates(model, mean, fit.slot_rate, fit.efficiency, DARK_RATE, WINDOW_PS).pairs

    split = [[pairs(model, 0.044)[key] for key in REFERENCE_PAIRS]
             for model in (RoutingModel.CLASSICAL, RoutingModel.PHASE_BASIS)]
    return split, pairs(RoutingModel.BUNCHING, 0.022)


def criterion4_odds(bunching):
    """P(both equal-ratio tests pass, in the continuous limit, the bunching
    run's p < 1e-6, taken as 1, and each cross-side pair counter,
    ~ Poisson(bunching[key]), lies at or below its ceiling)."""
    cross = math.prod(
        sum(pmf(k, bunching[key]) for k in range(poisson_ceiling(bunching[key]) + 1)) for key in CROSS_SIDE_PAIRS
    )
    return (1 - EQUAL_RATIO_P) ** 2 * cross


def prediction_means(model, mean_photon_number, duration, dark_rate=DARK_RATE):
    """Per counter name, (its band, its Poisson mean) in one run of
    test_simulation_matches_predictions: 1e7 slots/s, efficiency 0.5828.

    The band is the test's, from predicted_rates. The mean adds the
    photon-pair x dark accidental triples that predicted_rates omits."""
    slot_rate, efficiency = 1e7, 0.5828
    prediction = predicted_rates(model, mean_photon_number, slot_rate, efficiency, dark_rate, WINDOW_PS)
    table = click_pattern_table(model, mean_photon_number, efficiency)

    def fire(dets):  # rate of slots in which every detector of dets fires
        return slot_rate * sum(p for mask, p in enumerate(table) if all(mask >> det & 1 for det in dets))

    out = {}
    for name, group, key in COUNTERS:
        predicted = getattr(prediction, group)[key] * duration
        mean = predicted
        if group == "triples":
            pairs = (fire([d for d in key if d != dark]) for dark in key)
            mean += sum(accidental_pair_rate(rate, dark_rate, 2 * WINDOW_PS) for rate in pairs) * duration
        out[name] = stats.poisson.interval(PREDICTION_MASS, predicted) if predicted > 0 else (0, 0), mean
    return out


def prediction_odds(means):
    """P(every counter, ~ Poisson(mean), lies in its band), all independent."""
    return math.prod(stats.poisson.cdf(hi, mu) - stats.poisson.cdf(lo - 1, mu) for (lo, hi), mu in means.values())
