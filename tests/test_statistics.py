import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ENUM_MAX_N,
    detector_outcome_distribution,
    enumerated_click_table,
    pair_pattern_probability,
    triple_pattern_probability,
)
from scipy import special, stats

from bunchsim.coincidence_unit import (
    CROSS_SIDE_PAIRS,
    PAIR_KEYS,
    SAME_SIDE_PAIRS,
    TRIPLE_KEYS,
    TallyTable,
)
from bunchsim.detector_bank import Detector, DetectorConfig
from bunchsim.photon_source import MAX_MEAN_PHOTON_NUMBER, SourceConfig
from bunchsim.routing_models import RoutingModel
from bunchsim.simulate import SimConfig, simulate
from bunchsim.statistics import (
    REFERENCE_BLOCKS,
    ReferenceBlock,
    accidental_pair_rate,
    bunching_fraction,
    calibrate,
    click_pattern_table,
    equal_ratio_chisquare,
    g2_zero,
    leading_pattern_probability,
    predicted_rates,
    scaling_check,
)

MODELS = list(RoutingModel)


def multinomial_uniform(n, occupancy):
    """Classical oracle: each photon lands on one of 4 detectors uniformly."""
    if sum(occupancy) != n:
        return 0.0
    coef = math.factorial(n)
    for k in occupancy:
        coef //= math.factorial(k)
    return coef / 4.0**n


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", range(0, 13, 3))
def test_outcome_distribution_normalized(model, n):
    dist = detector_outcome_distribution(model, n)
    assert abs(sum(dist.values()) - 1.0) <= 1e-12
    assert all(sum(k) == n for k in dist)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_classical_outcomes_are_uniform_multinomial(n):
    dist = detector_outcome_distribution(RoutingModel.CLASSICAL, n)
    for occupancy, prob in dist.items():
        assert prob == pytest.approx(multinomial_uniform(n, occupancy), rel=1e-13)


def test_pair_pattern_tables():
    for model in (RoutingModel.CLASSICAL, RoutingModel.PHASE_BASIS):
        for key in PAIR_KEYS:
            assert pair_pattern_probability(model, key) == pytest.approx(1 / 8, abs=1e-15)
    for key in SAME_SIDE_PAIRS:
        assert pair_pattern_probability(RoutingModel.BUNCHING, key) == pytest.approx(1 / 4, abs=1e-15)
    for key in CROSS_SIDE_PAIRS:
        assert pair_pattern_probability(RoutingModel.BUNCHING, key) == 0.0


def test_pair_patterns_plus_collisions_cover_everything():
    # a 2-photon slot either lands on two distinct detectors or collides
    for model in MODELS:
        dist = detector_outcome_distribution(model, 2)
        split = sum(pair_pattern_probability(model, key) for key in PAIR_KEYS)
        collisions = sum(p for occ, p in dist.items() if max(occ) == 2)
        assert abs(split + collisions - 1.0) <= 1e-12


def test_triple_pattern_tables():
    for model in (RoutingModel.CLASSICAL, RoutingModel.PHASE_BASIS):
        for key in TRIPLE_KEYS:
            assert triple_pattern_probability(model, key) == pytest.approx(3 / 32, abs=1e-15)
    for key in TRIPLE_KEYS:
        # every triple needs photons on both sides; bunching never does that
        assert triple_pattern_probability(RoutingModel.BUNCHING, key) == 0.0


def occupancy(mask):
    """Per-detector photon counts of one photon on each detector of bitmask mask."""
    return tuple(mask >> det & 1 for det in Detector)


@pytest.mark.parametrize("model", MODELS)
def test_leading_pattern_probability_matches_the_enumeration(model):
    for mask in range(16):
        oracle = detector_outcome_distribution(model, mask.bit_count()).get(occupancy(mask), 0.0)
        assert leading_pattern_probability(model, mask) == oracle, mask


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    nbar=st.floats(0, MAX_MEAN_PHOTON_NUMBER),
    slot_rate=st.floats(0, 1e10),
    eta=st.floats(0, 1),
    dark=st.floats(0, 1e6),
    window=st.integers(0, 10**6),
)
def test_leading_order_is_the_enumerated_first_term(model, nbar, slot_rate, eta, dark, window):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the dilute-regime warning
        pred = predicted_rates(model, nbar, slot_rate, eta, dark, window_ps=window)

    def first_term(k, p_k):
        return slot_rate * (nbar**k / math.factorial(k)) * eta**k * p_k

    single_oracle = detector_outcome_distribution(model, 1)
    photon_single = first_term(1, single_oracle[occupancy(1 << Detector.A1)])
    acc = accidental_pair_rate(photon_single, dark, window) * 2.0 + accidental_pair_rate(dark, dark, window)
    for det in Detector:
        assert pred.singles[det] == first_term(1, single_oracle[occupancy(1 << det)]) + dark
    for key in PAIR_KEYS:
        assert pred.pairs[key] == first_term(2, pair_pattern_probability(model, key)) + acc
    for key in TRIPLE_KEYS:
        assert pred.triples[key] == first_term(3, triple_pattern_probability(model, key))


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(MODELS), nbar=st.floats(1e-3, 0.1), eta=st.floats(1e-2, 1))
def test_exact_rates_agree_with_leading_order_to_first_order(model, nbar, eta):
    # x - x^2/2 <= 1 - exp(-x) <= x bounds each of a counter's k detector
    # factors, so 1 - exact/leading lies in [0, k * x / 2]. The lower ends of
    # nbar and eta keep that gap far above float rounding.
    lit = 2 if model is RoutingModel.BUNCHING else 4
    x = nbar * eta / lit
    leading = predicted_rates(model, nbar, 1e7, eta, 0.0)
    exact = predicted_rates(model, nbar, 1e7, eta, 0.0, exact=True)
    by_order = [(leading.singles, exact.singles), (leading.pairs, exact.pairs), (leading.triples, exact.triples)]
    for k, (lead, ex) in enumerate(by_order, start=1):
        for key, rate in lead.items():
            if rate:
                assert 0 <= 1 - ex[key] / rate <= k * x / 2 + 1e-12, key
            else:
                assert ex[key] == 0.0, key


def test_predicted_rates_against_hand_derived_constants():
    R, nbar, eta = 7.78e7, 0.022, 0.586
    pred = predicted_rates(RoutingModel.PHASE_BASIS, nbar, R, eta, dark_rate=0.0)
    single = R * nbar * eta / 4
    pair = R * nbar**2 / 2 * eta**2 / 8
    triple = R * nbar**3 / 6 * eta**3 * 3 / 32
    assert single == pytest.approx(250_749.4, rel=1e-6)
    assert pair == pytest.approx(808.17, rel=1e-3)
    assert triple == pytest.approx(2.605, rel=1e-3)
    for det in Detector:
        assert pred.singles[det] == pytest.approx(single, rel=1e-12)
    for key in PAIR_KEYS:
        assert pred.pairs[key] == pytest.approx(pair, rel=1e-12)
    for key in TRIPLE_KEYS:
        assert pred.triples[key] == pytest.approx(triple, rel=1e-12)


def test_predicted_rates_include_dark_terms():
    R, nbar, eta, dark, w = 1e8, 0.01, 0.5, 100.0, 5_000
    pred = predicted_rates(RoutingModel.CLASSICAL, nbar, R, eta, dark, window_ps=w)
    photon_single = R * nbar * eta / 4
    assert pred.singles[Detector.B1] == pytest.approx(photon_single + dark, rel=1e-12)
    accidental = 2 * (w * 1e-12) * (2 * photon_single * dark + dark * dark)
    photon_pair = R * nbar**2 / 2 * eta**2 / 8
    assert pred.pairs[PAIR_KEYS[0]] == pytest.approx(photon_pair + accidental, rel=1e-12)


def test_dilute_regime_warning():
    with pytest.warns(UserWarning):
        predicted_rates(RoutingModel.CLASSICAL, 0.2, 1e7, 0.5, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the exact predictor holds at any mean
        predicted_rates(RoutingModel.CLASSICAL, 0.2, 1e7, 0.5, 0.0, exact=True)


def test_exact_mode_applies_saturation():
    leading = predicted_rates(RoutingModel.CLASSICAL, 0.05, 1e7, 0.6, 0.0)
    exact = predicted_rates(RoutingModel.CLASSICAL, 0.05, 1e7, 0.6, 0.0, exact=True)
    s_lead = leading.singles[Detector.A1]
    s_exact = exact.singles[Detector.A1]
    assert s_exact < s_lead  # multi-photon slots saturate to one click
    assert abs(s_exact - s_lead) / s_lead < 0.05
    # bunching never feeds both sides, at any photon number
    for key in CROSS_SIDE_PAIRS:
        pred = predicted_rates(RoutingModel.BUNCHING, 0.05, 1e7, 0.6, 0.0, exact=True)
        assert pred.pairs[key] == 0.0


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(MODELS), nbar=st.floats(0, 2), eta=st.floats(0, 1))
def test_click_pattern_table_matches_enumerated_oracle(model, nbar, eta):
    table = click_pattern_table(model, nbar, eta)
    oracle = enumerated_click_table(model, nbar, eta)
    tail = special.pdtrc(ENUM_MAX_N, nbar)  # P(N > ENUM_MAX_N), which the oracle leaves out
    assert len(table) == 16
    for p, ref in zip(table, oracle):
        assert p >= 0
        assert abs(p - ref) <= 1e-13 + tail


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(MODELS), nbar=st.floats(0, MAX_MEAN_PHOTON_NUMBER), eta=st.floats(0, 1))
def test_click_pattern_table_is_a_distribution_at_any_mean(model, nbar, eta):
    table = click_pattern_table(model, nbar, eta)
    assert min(table) >= 0
    assert abs(sum(table) - 1.0) <= 1e-14


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
def test_click_pattern_table_without_photons_never_fires(model, eta):
    assert click_pattern_table(model, 0.0, eta) == [1.0] + [0.0] * 15


# --- calibration --------------------------------------------------------------


def test_calibrate_block1_closed_form():
    block = REFERENCE_BLOCKS["block1"]
    s_bar = sum(block.singles.values()) / 4
    p_bar = sum(block.pairs.values()) / 4
    eta = 4 * p_bar / (s_bar * 0.022)
    slot_rate = 4 * s_bar / (0.022 * eta)
    result = calibrate(block)
    assert result.efficiency == pytest.approx(eta, rel=1e-12)
    assert result.slot_rate == pytest.approx(slot_rate, rel=1e-12)
    assert 0.55 < result.efficiency < 0.62
    assert 7.5e7 < result.slot_rate < 8.1e7


def test_calibration_round_trips_fitted_aggregates():
    block = REFERENCE_BLOCKS["block1"]
    result = calibrate(block)
    pred = predicted_rates(
        RoutingModel.PHASE_BASIS, 0.022, result.slot_rate, result.efficiency, dark_rate=0.0
    )
    s_bar = sum(block.singles.values()) / 4
    p_bar = sum(block.pairs.values()) / 4
    assert pred.singles[Detector.A1] == pytest.approx(s_bar, rel=1e-12)
    assert pred.pairs[PAIR_KEYS[0]] == pytest.approx(p_bar, rel=1e-12)
    # every remaining counter lands within 25%
    assert max(abs(v) for v in result.residuals.values()) < 0.25


def test_blocks_calibrate_consistently():
    one = calibrate(REFERENCE_BLOCKS["block1"])
    two = calibrate(REFERENCE_BLOCKS["block2"])
    assert abs(two.slot_rate / one.slot_rate - 1) < 0.15
    assert abs(two.efficiency / one.efficiency - 1) < 0.15


def test_calibrate_rejects_inconsistent_targets():
    block = REFERENCE_BLOCKS["block1"]
    silly = ReferenceBlock(
        mean_photon_number=block.mean_photon_number,
        acquisition_s=1.0,
        singles=block.singles,
        pairs={k: v * 10 for k, v in block.pairs.items()},  # implies eta > 1
        triples=block.triples,
    )
    with pytest.raises(ValueError):
        calibrate(silly)
    with pytest.raises(ValueError):
        calibrate(block, mean_photon_number=0.0)
    dark = dataclasses.replace(block, singles=dict.fromkeys(block.singles, 0))
    with pytest.raises(ValueError, match="positive mean singles rate"):
        calibrate(dark)


@pytest.mark.parametrize("acquisition", [-0.01, 0.0, -0.0, math.inf, -math.inf, math.nan])
def test_calibrate_rejects_acquisitions_that_are_not_finite_and_positive(acquisition):
    block = dataclasses.replace(REFERENCE_BLOCKS["block1"], acquisition_s=acquisition)
    with pytest.raises(ValueError, match="acquisition_s must be finite and > 0"):
        calibrate(block)


def test_calibrate_normalizes_by_acquisition():
    block = REFERENCE_BLOCKS["block1"]
    doubled = ReferenceBlock(
        mean_photon_number=block.mean_photon_number,
        acquisition_s=2.0,
        singles={k: 2 * v for k, v in block.singles.items()},
        pairs={k: 2 * v for k, v in block.pairs.items()},
        triples={k: 2 * v for k, v in block.triples.items()},
    )
    a, b = calibrate(block), calibrate(doubled)
    assert a.slot_rate == pytest.approx(b.slot_rate, rel=1e-12)
    assert a.efficiency == pytest.approx(b.efficiency, rel=1e-12)


# --- correlation estimators ----------------------------------------------------


def synthetic_tally(singles, pairs, acquisition_s=1.0):
    full_pairs = {key: 0 for key in PAIR_KEYS}
    full_pairs.update(pairs)
    return TallyTable(
        singles={det: singles.get(det, 0) for det in Detector},
        pairs=full_pairs,
        triples={key: 0 for key in TRIPLE_KEYS},
        acquisition_s=acquisition_s,
    )


def test_g2_zero_hand_computed():
    tally = synthetic_tally(
        {Detector.A1: 1000, Detector.A2: 2000, Detector.B1: 1500, Detector.B2: 500},
        {
            (Detector.A1, Detector.A2): 5,
            (Detector.B1, Detector.B2): 7,
            (Detector.A1, Detector.B1): 30,
            (Detector.A1, Detector.B2): 10,
            (Detector.A2, Detector.B1): 20,
            (Detector.A2, Detector.B2): 40,
        },
    )
    out = g2_zero(tally, slot_rate=1e6)
    assert out.g2_cross == pytest.approx(100 * 1e6 / (3000 * 2000), rel=1e-12)
    assert out.g2_same == pytest.approx(12 * 1e6 / (1000 * 2000 + 1500 * 500), rel=1e-12)
    assert out.bunching_fraction == pytest.approx(24 / 124, rel=1e-12)


def test_g2_zero_undefined_without_singles():
    empty = synthetic_tally({}, {})
    out = g2_zero(empty, slot_rate=1e6)
    assert math.isnan(out.g2_cross) and math.isnan(out.g2_same)
    assert math.isnan(out.bunching_fraction)


def test_bunching_fraction_signatures():
    equal = synthetic_tally({}, {key: 100 for key in PAIR_KEYS})
    assert bunching_fraction(equal) == pytest.approx(0.5, rel=1e-12)
    bunched = synthetic_tally({}, {key: 250 for key in SAME_SIDE_PAIRS})
    assert bunching_fraction(bunched) == 1.0


def test_equal_ratio_chisquare():
    stat, p = equal_ratio_chisquare([100, 100, 100, 100])
    assert stat == 0.0 and p == pytest.approx(1.0)
    _, p = equal_ratio_chisquare([1000, 1000, 10, 10])
    assert p < 1e-6
    with pytest.raises(ValueError):
        equal_ratio_chisquare([5])
    with pytest.raises(ValueError):
        equal_ratio_chisquare([0, 0, 0, 0])


@given(st.lists(st.integers(0, 10**7), min_size=2, max_size=8).filter(any))
def test_equal_ratio_chisquare_equals_scipy_stats(counts):
    reference = stats.chisquare(np.asarray(counts, dtype=float))
    assert equal_ratio_chisquare(counts) == (float(reference.statistic), float(reference.pvalue))


def test_accidental_formula():
    assert accidental_pair_rate(250_000.0, 27.0, 5_000) == pytest.approx(
        2 * 5_000e-12 * 250_000.0 * 27.0, rel=1e-12
    )


# --- scaling -------------------------------------------------------------------


def tally_with_config(nbar, singles, pairs, triples):
    meta = {
        "config": {
            "model": "phase-basis",
            "mean_photon_number": nbar,
            "slot_rate": 1e7,
            "efficiency": 0.6,
            "dark_rate": 0.0,
            "dead_time_ps": 22_000,
            "jitter_sigma_ps": 350.0,
            "window_ps": 5_000,
            "acquisition_s": 1.0,
            "seed": 1,
        }
    }
    return TallyTable(
        singles={det: singles for det in Detector},
        pairs={key: pairs for key in PAIR_KEYS},
        triples={key: triples for key in TRIPLE_KEYS},
        acquisition_s=1.0,
        metadata=meta,
    )


def test_scaling_check_recovers_exact_exponents():
    low = tally_with_config(0.02, 50_000, 500, 40)
    high = tally_with_config(0.04, 100_000, 2_000, 320)
    out = scaling_check(low, high)
    assert out["singles"] == pytest.approx(1.0, abs=1e-12)
    assert out["pairs"] == pytest.approx(2.0, abs=1e-12)
    assert out["triples"] == pytest.approx(3.0, abs=1e-12)


def test_scaling_check_excludes_starved_counters():
    low = tally_with_config(0.02, 50_000, 500, 40)
    high = tally_with_config(0.04, 100_000, 2_000, 320)
    # one triple channel has too few counts and a nonsense ratio; it must
    # not disturb the fit
    low.triples[TRIPLE_KEYS[0]] = 2
    high.triples[TRIPLE_KEYS[0]] = 9
    out = scaling_check(low, high)
    assert out["triples"] == pytest.approx(3.0, abs=1e-12)
    starved_low = tally_with_config(0.02, 50_000, 500, 1)
    starved_high = tally_with_config(0.04, 100_000, 2_000, 8)
    assert math.isnan(scaling_check(starved_low, starved_high)["triples"])


def test_scaling_check_rejects_mismatched_configs():
    low = tally_with_config(0.02, 50_000, 500, 40)
    high = tally_with_config(0.04, 100_000, 2_000, 320)
    high.metadata["config"]["window_ps"] = 9_999
    with pytest.raises(ValueError):
        scaling_check(low, high)
    same = tally_with_config(0.02, 50_000, 500, 40)
    with pytest.raises(ValueError):
        scaling_check(low, same)
    with pytest.raises(ValueError):
        scaling_check(low, TallyTable({}, {}, {}, 1.0))


# --- Monte Carlo agreement ------------------------------------------------------


def mc_config(model, seed, slot_rate=1e7, nbar=0.022):
    return SimConfig(
        source=SourceConfig(mean_photon_number=nbar, slot_rate=slot_rate, duration=1.0, seed=seed),
        detectors=DetectorConfig(efficiency=0.5828, dark_rate=27.0),
        model=model,
        window_ps=5_000,
    )


@pytest.mark.parametrize(
    "model,seed",
    [(RoutingModel.CLASSICAL, 101), (RoutingModel.PHASE_BASIS, 102), (RoutingModel.BUNCHING, 103)],
)
def test_simulation_matches_predictions(model, seed):
    cfg = mc_config(model, seed)
    tally = simulate(cfg)
    pred = predicted_rates(model, 0.022, 1e7, 0.5828, 27.0, exact=True)
    for name, count, _ in tally.counters():
        mu = dict(pred.counters())[name] * 1.0
        lo, hi = stats.poisson.interval(1 - 1e-4, mu) if mu > 0 else (0, 0)
        assert lo <= count <= hi, (name, count, mu)


def test_g2_cross_is_one_for_classical_light():
    # asymptotic check on a large clean run: coherent slots + independent
    # routing leave cross-side clicks uncorrelated
    cfg = SimConfig(
        source=SourceConfig(mean_photon_number=0.022, slot_rate=1e8, duration=1.0, seed=77),
        detectors=DetectorConfig(efficiency=0.5828, dark_rate=0.0),
        model=RoutingModel.CLASSICAL,
        window_ps=5_000,
    )
    tally = simulate(cfg)
    out = g2_zero(tally, slot_rate=1e8)
    cross = sum(tally.pairs[k] for k in CROSS_SIDE_PAIRS)
    assert cross > 3_000
    assert abs(out.g2_cross - 1.0) <= 3.0 / math.sqrt(cross)