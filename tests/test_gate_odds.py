import math

import numpy as np
import pytest
from gate_odds import (
    BUNCHING_P,
    DARK_BAND,
    EQUAL_RATIO_P,
    REL,
    TARGET,
    WINDOW_PS,
    band_odds,
    block1_means,
    criterion4_means,
    criterion4_odds,
    dark_floor_means,
    dark_floor_odds,
    poisson_ceiling,
    prediction_means,
    prediction_odds,
)
from scipy import stats

from bunchsim.coincidence_unit import CROSS_SIDE_PAIRS, PAIR_KEYS, REFERENCE_PAIRS, TRIPLE_KEYS, counter_name
from bunchsim.detector_bank import DetectorConfig
from bunchsim.photon_source import SourceConfig
from bunchsim.routing_models import RoutingModel
from bunchsim.simulate import SimConfig, simulate


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
    runs = [SimConfig(SourceConfig(1.0, 1e7, 0.1, seed), detectors, RoutingModel.BUNCHING, WINDOW_PS) for seed in seeds]
    seen = sum(sum(simulate(config).triples.values()) for config in runs)
    print(f"{seen} triples against a mean of {mean:.1f}")
    assert abs(seen - mean) <= 5 * math.sqrt(mean), (seen, mean)
