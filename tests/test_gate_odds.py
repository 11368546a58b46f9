import math

import numpy as np
import pytest
from gate_odds import (
    DARK_BAND,
    REL,
    TARGET,
    WINDOW_PS,
    band_odds,
    block1_means,
    dark_floor_means,
    dark_floor_odds,
    poisson_ceiling,
)
from scipy import stats


def test_block1_odds_match_a_monte_carlo_of_the_mixture():
    own, shared = block1_means()
    odds = band_odds(own, shared)
    assert odds == pytest.approx(0.0486, abs=5e-5)  # about 0.469^4, as if the counters were independent
    draws = 100_000
    rng = np.random.default_rng(3)
    counts = rng.poisson(own, size=(draws, len(own))) + rng.poisson(shared, size=(draws, 1))
    hits = int(np.all(np.abs(counts - TARGET) <= REL * TARGET, axis=1).sum())
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
