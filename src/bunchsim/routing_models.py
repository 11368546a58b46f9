"""Routing of n simultaneous photons into the two output ports of a splitter.

Three interchangeable models:

 * classical: every photon picks a port independently (fair binomial).
 * phase-basis: photons carry one of two reflection-phase labels; for n = 2
   the four equally likely label patterns give bunched (2,0), bunched (0,2)
   and split (1,1) outcomes with probabilities 1/4, 1/4, 1/2. Identical to
   the binomial distribution for n <= 2, which is the whole point of the
   experiment this reproduces. For n >= 3 the pairwise-label picture has no
   defined rule, so the model falls back to binomial routing; callers should
   surface phase_basis_fallback_count() in run metadata.
 * bunching: all n photons exit one port together, fair coin per slot.

So classical and phase-basis routing share one binomial law at every n, and
statistics.click_pattern_table states all three models in closed form.

route_counts draws in photon_source.draw_blocks and writes int16 rows, so a
chunk's routing holds no full-length int64 temporary; photon numbers above
2^15 - 1 are rejected, not wrapped. Block-wise drawing is exact: the blocks
consume the generator as one whole-array call would, and leave it in the
same state. The fair binomial is photon_source.binomial_half, which gives
rng.binomial(n, 0.5) from raw words; a routed slot holds at least one
photon, so n = 1, the common case, is one compare of its word.
"""

from __future__ import annotations

import enum

import numpy as np

from .photon_source import COUNT_DTYPE, binomial_half, draw_blocks, photon_numbers


class RoutingModel(enum.Enum):
    CLASSICAL = "classical"
    PHASE_BASIS = "phase-basis"
    BUNCHING = "bunching"


def route_counts(model: RoutingModel, n, rng: np.random.Generator) -> np.ndarray:
    """Vectorised routing: port-1 occupancy (int16) for each entry of a 1-D n.

    n must lie in [0, 2^15 - 1], or ValueError. Every block's binomial (or
    bunching coin) draw comes first, then the phase-basis n = 2 uniforms of
    every block, as in one whole-array call; the draws do not depend on the
    dtype of n. The binomial draws are binomial_half's, which equal
    rng.binomial(n, 0.5).
    """
    n = photon_numbers(n)
    port1 = np.empty(n.size, dtype=COUNT_DTYPE)
    for block in draw_blocks(n.size):
        if model is RoutingModel.BUNCHING:
            port1[block] = n[block] * rng.integers(0, 2, size=n[block].size, dtype=np.int64)
        else:
            port1[block] = binomial_half(n[block], rng)
    if model is RoutingModel.PHASE_BASIS:
        for block in draw_blocks(n.size):
            two = np.flatnonzero(n[block] == 2)
            u = rng.random(two.size)
            port1[block][two] = np.where(u < 0.25, 2, np.where(u < 0.5, 0, 1))
    return port1


def phase_basis_fallback_count(model: RoutingModel, n) -> int:
    """Number of slots routed by the binomial fallback under the phase-basis model."""
    if model is not RoutingModel.PHASE_BASIS:
        return 0
    n = np.asarray(n)
    return int(np.count_nonzero(n >= 3))
