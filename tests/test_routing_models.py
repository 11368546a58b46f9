import math

import numpy as np
import pytest

from bunchsim.bs_algebra import Combination, PhaseBasis, apply_same_basis, intensity, superpose_opposite
from bunchsim.photon_source import substream
from bunchsim.routing_models import RoutingModel, phase_basis_fallback_count, route_counts
from oracles import ENUM_MAX_N, enumerate_distribution, route

MODELS = list(RoutingModel)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", range(ENUM_MAX_N + 1))
def test_enumeration_is_a_distribution(model, n):
    dist = enumerate_distribution(model, n)
    assert abs(sum(dist.values()) - 1.0) <= 1e-12
    for (p1, p2), prob in dist.items():
        assert p1 >= 0 and p2 >= 0 and p1 + p2 == n
        assert prob > 0


def test_enumeration_bound():
    with pytest.raises(ValueError):
        enumerate_distribution(RoutingModel.CLASSICAL, ENUM_MAX_N + 1)


@pytest.mark.parametrize("n", range(ENUM_MAX_N + 1))
def test_classical_is_binomial(n):
    dist = enumerate_distribution(RoutingModel.CLASSICAL, n)
    for (p1, _), prob in dist.items():
        assert prob == math.comb(n, p1) / 2**n  # dyadic, exact in floats


@pytest.mark.parametrize("n", range(1, ENUM_MAX_N + 1))
def test_bunching_all_or_nothing(n):
    dist = enumerate_distribution(RoutingModel.BUNCHING, n)
    assert dist == {(n, 0): 0.5, (0, n): 0.5}


def test_single_photon_is_50_50_everywhere():
    for model in MODELS:
        assert enumerate_distribution(model, 1) == {(1, 0): 0.5, (0, 1): 0.5}


def test_phase_basis_pair_distribution_from_amplitudes():
    """Independent oracle for the n = 2 weights.

    Each photon of a pair carries one of the two splitter phase bases,
    independently and uniformly. Equal bases leave the pair split across
    both ports; opposite bases form the symmetric or antisymmetric
    superposition, which bunches. Mapping the four equally likely basis
    assignments through the amplitude algebra must reproduce the sampled
    weights exactly.
    """
    oracle = {}
    cases = [
        (PhaseBasis.PLUS, PhaseBasis.PLUS),
        (PhaseBasis.PLUS, PhaseBasis.MINUS),
        (PhaseBasis.MINUS, PhaseBasis.PLUS),
        (PhaseBasis.MINUS, PhaseBasis.MINUS),
    ]
    for b1, b2 in cases:
        if b1 is b2:
            i1, i2 = intensity(apply_same_basis(math.sqrt(2.0), b1))
        else:
            comb = Combination.SYMMETRIC if b1 is PhaseBasis.PLUS else Combination.ANTISYMMETRIC
            i1, i2 = intensity(superpose_opposite(1.0, comb))
        # two photons distributed proportionally to the port intensities
        occupancy = (round(2 * i1 / (i1 + i2)), round(2 * i2 / (i1 + i2)))
        oracle[occupancy] = oracle.get(occupancy, 0.0) + 0.25
    assert oracle == enumerate_distribution(RoutingModel.PHASE_BASIS, 2)
    assert oracle == {(2, 0): 0.25, (0, 2): 0.25, (1, 1): 0.5}


def test_phase_basis_pair_differs_from_bunching_not_classical():
    pair_pb = enumerate_distribution(RoutingModel.PHASE_BASIS, 2)
    assert pair_pb == enumerate_distribution(RoutingModel.CLASSICAL, 2)
    assert pair_pb != enumerate_distribution(RoutingModel.BUNCHING, 2)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_phase_basis_falls_back_to_classical_above_pairs(n):
    assert enumerate_distribution(RoutingModel.PHASE_BASIS, n) == enumerate_distribution(
        RoutingModel.CLASSICAL, n
    )


def test_fallback_counter():
    n = np.array([0, 1, 2, 3, 4, 2, 7])
    assert phase_basis_fallback_count(RoutingModel.PHASE_BASIS, n) == 3
    assert phase_basis_fallback_count(RoutingModel.CLASSICAL, n) == 0
    assert phase_basis_fallback_count(RoutingModel.BUNCHING, n) == 0


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", range(5))
def test_sampled_frequencies_match_enumeration(model, n):
    draws = 200_000
    rng = substream(314, 7, int(model is not RoutingModel.CLASSICAL), n)
    port1 = route_counts(model, np.full(draws, n), rng)
    dist = enumerate_distribution(model, n)
    for (p1, _), prob in dist.items():
        observed = int(np.count_nonzero(port1 == p1))
        if prob in (0.0, 1.0):
            assert observed == draws * prob
            continue
        sigma = math.sqrt(draws * prob * (1 - prob))
        assert abs(observed - draws * prob) <= 4 * sigma, (model, n, p1)


def test_scalar_route_conserves_photons():
    rng = substream(555)
    for model in MODELS:
        for n in range(6):
            p1, p2 = route(model, n, rng)
            assert p1 + p2 == n and p1 >= 0 and p2 >= 0


def test_route_counts_conserves_photons():
    rng = substream(556)
    n = rng.integers(0, 10, size=1000)
    for model in MODELS:
        port1 = route_counts(model, n, rng)
        assert np.all(port1 >= 0) and np.all(port1 <= n)
        if model is RoutingModel.BUNCHING:
            assert np.all((port1 == 0) | (port1 == n))
