import math

import numpy as np
import pytest
from gate_odds import REL, TARGET, band_odds, block1_means


def test_block1_odds_match_a_monte_carlo_of_the_mixture():
    own, shared = block1_means()
    odds = band_odds(own, shared)
    assert odds == pytest.approx(0.0486, abs=5e-5)  # about 0.469^4, as if the counters were independent
    draws = 100_000
    rng = np.random.default_rng(3)
    counts = rng.poisson(own, size=(draws, len(own))) + rng.poisson(shared, size=(draws, 1))
    hits = int(np.all(np.abs(counts - TARGET) <= REL * TARGET, axis=1).sum())
    assert abs(hits - draws * odds) <= 5 * math.sqrt(draws * odds * (1 - odds)), (hits, draws * odds)
