import math

import numpy as np
import pytest
from gate_odds import (
    BUNCHING_P,
    DARK_BAND,
    EQUAL_RATIO_P,
    FRACTION_REACH,
    MIN_PAIRS,
    REL,
    ROUTING_DRAWS,
    TARGET,
    WINDOW_PS,
    band_odds,
    binomial_band_odds,
    block1_means,
    criterion2_group_odds,
    criterion4_means,
    criterion4_odds,
    criterion5_means,
    criterion5_odds,
    criterion6_odds,
    dark_floor_means,
    dark_floor_odds,
    fraction_odds,
    poisson_ceiling,
    prediction_means,
    prediction_odds,
    ratio_odds,
    routing_groups,
    scaling_parts,
)
from scipy import stats

from bunchsim.coincidence_unit import CROSS_SIDE_PAIRS, PAIR_KEYS, REFERENCE_PAIRS, TRIPLE_KEYS, counter_name
from bunchsim.detector_bank import DetectorConfig
from bunchsim.photon_source import SourceConfig
from bunchsim.routing_models import RoutingModel
from bunchsim.simulate import SimConfig, simulate


def test_criterion_2_odds_match_the_exact_binomial_where_a_group_has_two_outcomes():
    groups, odds = routing_groups(), criterion2_group_odds()
    two = [group for group, probs in groups.items() if len(probs) == 2]
    assert sorted((model.value, n) for model, n in two) == [
        ("bunching", 1), ("bunching", 2), ("bunching", 3), ("bunching", 4), ("classical", 1), ("phase-basis", 1)
    ]
    exact = binomial_band_odds(0.5)
    assert exact == pytest.approx(0.99731, abs=5e-6)  # X in [498 500, 501 500] of Binomial(1e6, 1/2)
    for group in two:
        assert abs(odds[group] - exact) <= 5 * math.sqrt(exact * (1 - exact) / ROUTING_DRAWS), (group, odds[group])
    assert all(odds[model, 0] == 1.0 for model in RoutingModel)  # one outcome, met exactly
    # 4e6 draws per group of three to five outcomes, with the two-outcome
    # groups exact, give 0.9248; the tolerance is three standard errors of
    # this Monte Carlo's product of 15 shares
    total = math.prod(odds.values())
    error = total * math.sqrt(sum((1 - p) / (p * ROUTING_DRAWS) for p in odds.values()))
    assert total == pytest.approx(0.9248, abs=3 * error), (total, error)
    assert odds[RoutingModel.CLASSICAL, 4] == pytest.approx(0.9869, abs=5 * math.sqrt(0.9869 * 0.0131 / ROUTING_DRAWS))


def test_block1_odds_match_a_monte_carlo_of_the_mixture():
    own, shared = block1_means()
    odds = band_odds(own, shared)
    assert odds == pytest.approx(0.0486, abs=5e-5)  # about 0.469^4, as if the counters were independent
    draws = 100_000
    rng = np.random.default_rng(3)
    counts = rng.poisson(own, size=(draws, len(own))) + rng.poisson(shared, size=(draws, 1))
    hits = int(np.all(np.abs(counts - TARGET) <= REL * TARGET, axis=1).sum())
    assert abs(hits - draws * odds) <= 5 * math.sqrt(draws * odds * (1 - odds)), (hits, draws * odds)


def equal_ratio_p(counts):
    """equal_ratio_chisquare's p-value of each row of counts."""
    expected = counts.mean(axis=-1, keepdims=True)
    return stats.chi2.sf(((counts - expected) ** 2 / expected).sum(axis=-1), counts.shape[-1] - 1)


def test_criterion_4_odds_match_a_monte_carlo_of_poisson_pair_counters():
    split, bunching = criterion4_means()
    assert np.allclose(split, 3191.376, atol=1e-3)  # one null for both split models
    assert [poisson_ceiling(bunching[key]) for key in CROSS_SIDE_PAIRS] == [3] * 4
    odds = criterion4_odds(bunching)
    assert odds == pytest.approx(0.99**2 * 0.99995, abs=5e-5)  # ~0.980
    # per draw, the four reference pair counters of each block-2 run and the
    # bunching run's six pair counters, all independent Poisson, through
    # criterion 4's three tests
    draws = 100_000
    rng = np.random.default_rng(4)
    split_ok = np.all(equal_ratio_p(rng.poisson(split, size=(draws, *np.shape(split)))) > EQUAL_RATIO_P, axis=1)
    pairs = dict(zip(PAIR_KEYS, rng.poisson([bunching[key] for key in PAIR_KEYS], size=(draws, len(PAIR_KEYS))).T))
    bunching_ok = equal_ratio_p(np.stack([pairs[key] for key in REFERENCE_PAIRS], axis=1)) < BUNCHING_P
    cross_ok = np.all([pairs[key] <= poisson_ceiling(bunching[key]) for key in CROSS_SIDE_PAIRS], axis=0)
    assert bunching_ok.all()
    hits = int((split_ok & bunching_ok & cross_ok).sum())
    assert abs(hits - draws * odds) <= 5 * math.sqrt(draws * odds * (1 - odds)), (hits, draws * odds)


def test_criterion_5_odds_match_a_monte_carlo_of_poisson_pair_sums():
    split, bunching = criterion5_means()
    assert np.allclose(split, (6382.753, 12765.506), atol=1e-3)  # one null for both split models
    assert bunching == pytest.approx((1623.16, 0.0), abs=0.01)
    same, cross = split[0]
    # the band in sigma of f = 2S / (2S + C), to first order in S and C
    total = 2 * same + cross
    sigma = math.hypot(2 * cross / total**2 * math.sqrt(same), 2 * same / total**2 * math.sqrt(cross))
    assert FRACTION_REACH / sigma == pytest.approx(5.22, abs=5e-3)
    assert 1 - criterion5_odds(split, bunching) == pytest.approx(3.71e-7, rel=1e-3)  # twice 1.86e-7
    # a Monte Carlo cannot resolve odds so close to 1: check fraction_odds
    # on a band of +/- 0.005, which a run passes with odds 0.8080
    reach = 0.005
    odds = fraction_odds(same, cross, reach)
    assert odds == pytest.approx(0.8080, abs=5e-5)
    draws = 100_000
    rng = np.random.default_rng(7)
    s, c = rng.poisson(same, draws), rng.poisson(cross, draws)
    hits = int(np.sum((np.abs(2 * s / (2 * s + c) - 0.5) <= reach) & (s + c >= MIN_PAIRS)))
    assert abs(hits - draws * odds) <= 5 * math.sqrt(draws * odds * (1 - odds)), (hits, draws * odds)


def test_criterion_6_odds_match_a_monte_carlo_of_the_triple_sums():
    low, high = scaling_parts(0.022, 3), scaling_parts(0.044, 3)
    # per triple counter, its own slots plus the all-four slots the four share
    assert (low[1] / 4 + low[4], high[1] / 4 + high[4]) == pytest.approx((45.13, 358.05), abs=5e-3)
    odds = criterion6_odds()
    assert odds[1] == pytest.approx(1, abs=1e-12) and odds[2] == pytest.approx(1, abs=1e-12)
    assert odds[3] == pytest.approx(0.9967, abs=5e-5)
    # per draw, each run's triple sum, sum_m m * P_m, through the band and
    # through 8 +/- 1, whose odds, 0.8853, the draws resolve better
    narrow = ratio_odds(low, high, 8.0, 1.0)
    assert narrow == pytest.approx(0.8853, abs=5e-5)
    draws = 100_000
    rng = np.random.default_rng(8)
    sums = [sum(m * rng.poisson(mu, draws) for m, mu in run.items()) for run in (low, high)]
    for reach, p in ((2.0, odds[3]), (1.0, narrow)):
        hits = int(np.sum(np.abs(sums[1] / sums[0] - 8.0) <= reach))
        assert abs(hits - draws * p) <= 5 * math.sqrt(draws * p * (1 - p)), (reach, hits, draws * p)


def test_dark_floor_odds_match_a_monte_carlo_of_poisson_darks():
    single, accidental = dark_floor_means()
    assert poisson_ceiling(accidental) == stats.poisson.ppf(1 - 1e-4, accidental) == 0
    odds = dark_floor_odds(single, accidental)
    assert odds == pytest.approx(0.99821**4 * math.exp(-6 * 7.29e-6), abs=5e-5)  # ~0.9928
    # per draw, four Poisson(27) counts of darks at uniform picosecond times
    # in 1 s. A pair counter counts when two detectors' darks lie within the
    # window, and then two neighbours of the draw's sorted timeline do too
    draws, batch, second = 100_000, 10_000, 10**12
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(draws // batch):
        counts = rng.poisson(single, size=(batch, 4))
        draw = np.repeat(np.arange(batch).repeat(4), counts.ravel())
        det = np.repeat(np.tile(np.arange(4), batch), counts.ravel())
        key = draw * second + rng.integers(0, second, size=draw.size)
        order = np.argsort(key, kind="stable")
        draw, det, key = draw[order], det[order], key[order]
        paired = (draw[1:] == draw[:-1]) & (det[1:] != det[:-1]) & (key[1:] - key[:-1] <= WINDOW_PS)
        passed = np.all(np.abs(counts - single) <= DARK_BAND, axis=1)
        passed[draw[1:][paired]] = False
        hits += int(passed.sum())
    assert abs(hits - draws * odds) <= 5 * math.sqrt(draws * odds * (1 - odds)), (hits, draws * odds)


def test_bunching_prediction_odds_match_a_monte_carlo_of_poisson_counters():
    # test_simulation_matches_predictions' bunching case at mean 1.0, 0.1 s
    means = prediction_means(RoutingModel.BUNCHING, 1.0, 0.1)
    triples = [means[counter_name("triple", key)] for key in TRIPLE_KEYS]
    assert all(band == (0, 0) for band, _ in triples)
    # 0.070 per run over 200 fresh seeds, 13 of which read a triple
    assert sum(mean for _, mean in triples) == pytest.approx(0.0690, abs=5e-5)
    odds = prediction_odds(means)
    assert odds == pytest.approx(0.9328, abs=5e-5)  # exp(-0.0690) = 0.9333 from the triples, the rest ~1e-4 each
    draws = 100_000
    rng = np.random.default_rng(6)
    bands = np.array([band for band, _ in means.values()])
    counts = rng.poisson([mean for _, mean in means.values()], size=(draws, len(means)))
    hits = int(np.all((bands[:, 0] <= counts) & (counts <= bands[:, 1]), axis=1).sum())
    assert abs(hits - draws * odds) <= 5 * math.sqrt(draws * odds * (1 - odds)), (hits, draws * odds)


def test_accidental_triples_match_the_engine():
    # the photon-pair x dark term is linear in the dark rate: at 81 000
    # darks/s, 3000 times the test's, it is ~207 triples per run instead of
    # 0.069, while the dark x dark terms stay below 1. Dead time hides ~3%
    # of the darks behind their own detector's photon clicks
    dark_rate, seeds = 81_000.0, (1, 2, 3)
    means = prediction_means(RoutingModel.BUNCHING, 1.0, 0.1, dark_rate)
    mean = len(seeds) * sum(means[counter_name("triple", key)][1] for key in TRIPLE_KEYS)
    detectors = DetectorConfig(efficiency=0.5828, dark_rate=dark_rate)
    runs = [SimConfig(SourceConfig(1.0, 1e7, 0.1, seed), detectors, WINDOW_PS) for seed in seeds]
    seen = sum(sum(simulate(config, RoutingModel.BUNCHING).triples.values()) for config in runs)
    print(f"{seen} triples against a mean of {mean:.1f}")
    assert abs(seen - mean) <= 5 * math.sqrt(mean), (seen, mean)
