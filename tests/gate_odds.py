"""Odds that an exact simulator passes criterion 3's triple band.

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
"""

from __future__ import annotations

import math

from bunchsim.coincidence_unit import TRIPLE_KEYS
from bunchsim.routing_models import RoutingModel
from bunchsim.statistics import REFERENCE_BLOCKS, calibrate, click_pattern_table

TARGET, REL = 2.3, 0.35  # criterion 3's triple band: |T - 2.3| <= 0.35 * 2.3


def band_odds(own, shared):
    """P(every T_i = X_i + W lies in the band), X_i ~ Poisson(own[i]), W ~ Poisson(shared)."""

    def pmf(k, mu):
        return math.exp(-mu) * mu**k / math.factorial(k)

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
