"""Odds that an exact simulator passes criteria 2, 4, 5, 6 and 7 and criterion 3's triple band.

Criterion 2 (tests/test_acceptance.py) draws, per routing model and photon
number n = 0..4, 1e6 first-splitter outcomes from a substream of its own,
so its 15 groups are independent, and asks the count of each outcome to
lie within 3 sigma of its mean. An exact sampler's counts in a group are
multinomial over enumerate_distribution's outcomes. Where a group has two
outcomes, one count fixes the other, and it passes with the binomial odds
P(|X - 5e5| <= 1500) = 0.9973; these are classical and phase-basis at
n = 1 and bunching at every n >= 1. A Monte Carlo gives the odds of the
groups of three to five outcomes: classical and phase-basis lay n photons
binomially, and at n = 4 each passes with odds 0.987. All 15 groups pass
with odds 0.925, so one fresh realisation in 13 fails criterion 2.

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

Criterion 5 asks each of criterion 4's two block-2 runs for at least 1e4
pairs and a bunching fraction f = 2S / (2S + C) within 0.5 +/- 0.02, S the
two same-side pair counters and C the four cross-side ones, and a clean
bunching run (no darks, 1e7 slots/s) for f = 1 with a same-side pair. Its
means, S ~ 6383 and C ~ 12766 in 1 s, put the band 5.2 sigma of f from
its centre, so each split run fails it with odds 1.9e-7. The clean run's
cross-side mean is 0, and its same-side mean 1623. The odds take S and C
as independent Poisson counts, leaving out the few slots that feed both.

Criterion 6 doubles the mean photon number of a 3.5 s phase-basis run at
efficiency 1 with no darks and asks, per counter class, the ratio of the
two runs' counter sums to lie within 2 +/- 0.1 (singles), 4 +/- 0.4
(pairs) and 8 +/- 2 (triples). A slot in which j detectors fire adds
comb(j, k) to the sum of the counters of k detectors, so the sum is
sum_m m * P_m, P_m ~ Poisson(slots * table mass of its patterns), all
independent: the triple counters, 45.1 and 358.1 per counter, share the
all-four term, 0.25 and 3.9 of each. The triple ratio lies 3 sigma from
its band's edges and makes nearly all of the odds, 0.9967; those of the
singles and pairs, tens of sigma inside theirs, are 1 within 1e-13. The
three classes are taken as independent.

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

import functools
import math

import numpy as np
from oracles import enumerate_distribution
from scipy import stats

from bunchsim.coincidence_unit import (
    COUNTERS,
    CROSS_SIDE_PAIRS,
    PAIR_KEYS,
    REFERENCE_PAIRS,
    SAME_SIDE_PAIRS,
    TRIPLE_KEYS,
)
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
ROUTING_SAMPLES, ROUTING_SIGMAS = 1_000_000, 3  # criterion 2: samples per group, and its band in sigma
ROUTING_DRAWS = 200_000  # Monte Carlo draws per criterion-2 group
FRACTION_REACH, MIN_PAIRS = 0.02, 10_000  # criterion 5: |f - 0.5| <= 0.02 over at least 1e4 pairs
SCALING_BANDS = {1: (2.0, 0.1), 2: (4.0, 0.4), 3: (8.0, 2.0)}  # criterion 6: detectors per counter -> ratio, reach


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


def fit_pairs(model, mean_photon_number, slot_rate=None, dark_rate=DARK_RATE):
    """predicted_rates' pair means of a 1 s run at the block-1 fit's
    efficiency, and at its slot rate unless one is given."""
    fit = calibrate(REFERENCE_BLOCKS["block1"])
    return predicted_rates(
        model, mean_photon_number, slot_rate or fit.slot_rate, fit.efficiency, dark_rate, WINDOW_PS
    ).pairs


def criterion4_means():
    """(per block-2 run, classical then phase-basis, its four reference pair
    means; the bunching run's six pair means) of criterion 4's 1 s runs at
    the block-1 fit, 27 darks/s per detector."""
    split = [[fit_pairs(model, 0.044)[key] for key in REFERENCE_PAIRS]
             for model in (RoutingModel.CLASSICAL, RoutingModel.PHASE_BASIS)]
    return split, fit_pairs(RoutingModel.BUNCHING, 0.022)


def criterion4_odds(bunching):
    """P(both equal-ratio tests pass, in the continuous limit, the bunching
    run's p < 1e-6, taken as 1, and each cross-side pair counter,
    ~ Poisson(bunching[key]), lies at or below its ceiling)."""
    cross = math.prod(
        sum(pmf(k, bunching[key]) for k in range(poisson_ceiling(bunching[key]) + 1)) for key in CROSS_SIDE_PAIRS
    )
    return (1 - EQUAL_RATIO_P) ** 2 * cross


def criterion5_means():
    """(per block-2 run, classical then phase-basis, its same-side and
    cross-side pair means; the same of the clean bunching run) of
    criterion 5's 1 s runs at mean photon number 0.044. The block-2 runs are
    criterion 4's; the bunching run has no darks, at 1e7 slots/s."""

    def sides(pairs):
        return sum(pairs[key] for key in SAME_SIDE_PAIRS), sum(pairs[key] for key in CROSS_SIDE_PAIRS)

    split = [sides(fit_pairs(model, 0.044)) for model in (RoutingModel.CLASSICAL, RoutingModel.PHASE_BASIS)]
    return split, sides(fit_pairs(RoutingModel.BUNCHING, 0.044, slot_rate=1e7, dark_rate=0.0))


def fraction_odds(same, cross, reach=FRACTION_REACH):
    """P(|2S / (2S + C) - 1/2| <= reach and S + C >= 1e4), S ~ Poisson(same),
    C ~ Poisson(cross), independent: per C, S lies between the band's roots."""
    spread = 12 * math.sqrt(cross)
    c = np.arange(max(0, math.floor(cross - spread)), math.ceil(cross + spread) + 1)
    lo = np.maximum(np.ceil((0.5 - reach) * c / (1 + 2 * reach)), MIN_PAIRS - c)
    hi = np.floor((0.5 + reach) * c / (1 - 2 * reach))
    within = np.where(hi >= lo, stats.poisson.cdf(hi, same) - stats.poisson.cdf(lo - 1, same), 0.0)
    return float(np.sum(stats.poisson.pmf(c, cross) * within))


def criterion5_odds(split, bunching):
    """P(both split runs pass fraction_odds, and the clean bunching run reads
    no cross-side pair and some same-side pair), all independent."""
    same, cross = bunching
    return math.prod(fraction_odds(*run) for run in split) * math.exp(-cross) * -math.expm1(-same)


def scaling_parts(mean_photon_number, size):
    """{m: mean count of the slots that add m to the sum of the counters of
    size detectors} in one of criterion 6's runs: 3.5 s of phase-basis at
    the block-1 fit's slot rate, efficiency 1, no darks. A slot in which j
    detectors fire adds comb(j, size)."""
    slots = calibrate(REFERENCE_BLOCKS["block1"]).slot_rate * 3.5
    parts = {}
    for mask, prob in enumerate(click_pattern_table(RoutingModel.PHASE_BASIS, mean_photon_number, 1.0)):
        m = math.comb(mask.bit_count(), size)
        if m:
            parts[m] = parts.get(m, 0.0) + slots * prob
    return parts


def sum_pmf(parts):
    """(least value, pmf) of sum_m m * P_m, P_m ~ Poisson(parts[m]) independent,
    each cut 10 sigma from its mean and renormalised: scipy's Poisson pmf at
    a mean of 1e7 sums to 1 only within ~5e-9."""
    start, pmf = 0, np.ones(1)
    for m, mu in parts.items():
        spread = 10 * math.sqrt(mu) + 10
        k = np.arange(max(0, math.floor(mu - spread)), math.ceil(mu + spread) + 1)
        scaled = np.zeros(m * (k.size - 1) + 1)
        scaled[::m] = stats.poisson.pmf(k, mu)
        start += m * int(k[0])
        pmf = np.convolve(pmf, scaled / scaled.sum())
    return start, pmf


def ratio_odds(low, high, target, reach):
    """P(|Y_high / Y_low - target| <= reach) for the sums of sum_pmf(low) and
    sum_pmf(high), independent; Y_low = 0 fails."""
    start_low, pmf_low = sum_pmf(low)
    start_high, pmf_high = sum_pmf(high)
    y = start_low + np.arange(pmf_low.size)
    cdf = np.concatenate([[0.0], np.cumsum(pmf_high)])

    def at_most(v):  # P(Y_high <= v)
        return cdf[np.clip(np.floor(v).astype(np.int64) - start_high + 1, 0, pmf_high.size)]

    within = at_most((target + reach) * y) - at_most(np.ceil((target - reach) * y) - 1)
    return float(np.sum(np.where(y > 0, pmf_low * within, 0.0)))


def criterion6_odds():
    """Per counter class, by its detectors per counter, the odds that its
    ratio lies in its band, the runs at mean photon numbers 0.022 and 0.044."""
    return {size: ratio_odds(scaling_parts(0.022, size), scaling_parts(0.044, size), *band)
            for size, band in SCALING_BANDS.items()}


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


def routing_groups():
    """Criterion 2's groups, per (model, n) the probabilities of enumerate_distribution's outcomes."""
    return {(model, n): np.array(list(enumerate_distribution(model, n).values()))
            for model in RoutingModel for n in range(5)}


def binomial_band_odds(prob):
    """P(|X - mean| <= 3 sigma), X ~ Binomial(1e6, prob): the odds of a group of two outcomes."""
    mean = ROUTING_SAMPLES * prob
    reach = ROUTING_SIGMAS * math.sqrt(mean * (1 - prob))
    cdf = functools.partial(stats.binom.cdf, n=ROUTING_SAMPLES, p=prob)
    return float(cdf(math.floor(mean + reach)) - cdf(math.ceil(mean - reach) - 1))


@functools.cache
def criterion2_group_odds():
    """Per group, the share of ROUTING_DRAWS seeded multinomial draws of its
    1e6 samples in which every outcome's count lies within 3 sigma, as in
    criterion 2's float comparison."""
    rng = np.random.default_rng(2)
    odds = {}
    for group, probs in routing_groups().items():
        counts = rng.multinomial(ROUTING_SAMPLES, probs, size=ROUTING_DRAWS)
        mean = ROUTING_SAMPLES * probs
        within = np.abs(counts - mean) <= ROUTING_SIGMAS * np.sqrt(mean * (1 - probs))
        odds[group] = float(within.all(axis=1).mean())
    return odds
