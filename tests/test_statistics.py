import dataclasses
import math

import mpmath
import numpy as np
import pytest
from gate_odds import prediction_means, prediction_odds
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
from bunchsim.simulate import SimConfig, _simulate_chunk, simulate
from bunchsim.statistics import (
    REFERENCE_BLOCKS,
    ReferenceBlock,
    accidental_pair_rate,
    bunching_fraction,
    calibrate,
    chi_square_tail,
    click_pattern_table,
    equal_ratio_chisquare,
    g2_zero,
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


def q_of(nbar, eta, lit=4):
    """Per-detector firing probability of a slot that lights lit detectors."""
    return -math.expm1(-nbar * eta / lit)


def test_predicted_rates_against_hand_derived_constants():
    R, nbar, eta = 7.78e7, 0.022, 0.586
    pred = predicted_rates(RoutingModel.PHASE_BASIS, nbar, R, eta, dark_rate=0.0)
    q = q_of(nbar, eta)
    single, pair, triple = R * q, R * q**2, R * q**3
    assert single == pytest.approx(250_345.8, rel=1e-6)
    assert pair == pytest.approx(805.57, rel=1e-3)
    assert triple == pytest.approx(2.592, rel=1e-3)
    for det in Detector:
        assert pred.singles[det] == pytest.approx(single, rel=1e-12)
    for key in PAIR_KEYS:
        assert pred.pairs[key] == pytest.approx(pair, rel=1e-12)
    for key in TRIPLE_KEYS:
        assert pred.triples[key] == pytest.approx(triple, rel=1e-12)


def test_predicted_rates_include_dark_terms():
    R, nbar, eta, dark, w = 1e8, 0.01, 0.5, 100.0, 5_000
    pred = predicted_rates(RoutingModel.CLASSICAL, nbar, R, eta, dark, window_ps=w)
    photon_single = R * q_of(nbar, eta)
    assert pred.singles[Detector.B1] == pytest.approx(photon_single + dark, rel=1e-12)
    accidental = 2 * (w * 1e-12) * (2 * photon_single * dark + dark * dark)
    photon_pair = R * q_of(nbar, eta) ** 2
    assert pred.pairs[PAIR_KEYS[0]] == pytest.approx(photon_pair + accidental, rel=1e-12)


def test_predicted_rates_apply_saturation():
    pred = predicted_rates(RoutingModel.CLASSICAL, 0.05, 1e7, 0.6, 0.0)
    linear = 1e7 * 0.05 * 0.6 / 4  # one click per photon
    single = pred.singles[Detector.A1]
    assert single < linear  # multi-photon slots saturate to one click
    assert abs(single - linear) / linear < 0.05
    # bunching never feeds both sides, at any photon number
    pred = predicted_rates(RoutingModel.BUNCHING, 0.05, 1e7, 0.6, 0.0)
    for key in CROSS_SIDE_PAIRS:
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


@pytest.mark.parametrize("model", [RoutingModel.CLASSICAL, RoutingModel.PHASE_BASIS])
@pytest.mark.parametrize("mean", [0.044, 1.0, 5.0])
def test_click_pattern_table_has_the_product_form(model, mean):
    # both models light all four detectors, so each fires on its own with
    # q = 1 - exp(-nbar * eta / 4): P(m) = q^|m| (1 - q)^(4 - |m|). The worst
    # relative deviation at these means is 5.1e-16
    eta = calibrate(REFERENCE_BLOCKS["block1"]).efficiency
    q = q_of(mean, eta)
    for m, p in enumerate(click_pattern_table(model, mean, eta)):
        fired = m.bit_count()
        assert p == pytest.approx(q**fired * (1 - q) ** (4 - fired), rel=1e-14, abs=0)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("mean", [0.05, 1.0])
@pytest.mark.parametrize("seed", [8, 21, 34, 55])
def test_engine_click_patterns_follow_the_table(model, mean, seed):
    # the engine's per-slot click patterns, drawn with no jitter and no darks
    # at 1e9 slots/s so that a click's slot is t // 1000, against the closed
    # form: a Pearson chi-square over 2^20 slots, the smallest cells pooled
    # until the pool expects 5 slots. Seeds and threshold were fixed before
    # the first run; a failure is a defect of the engine or of the table
    slots, efficiency = 1 << 20, 0.6
    src = SourceConfig(mean_photon_number=mean, slot_rate=1e9, duration=(slots + 0.5) / 1e9, seed=seed)
    detectors = DetectorConfig(efficiency, jitter_sigma_ps=0.0, dark_rate=0.0)
    [(clicks, _)] = _simulate_chunk(src, detectors, [model], 0)
    pattern = np.zeros(slots, dtype=np.intp)
    for det, t in clicks.items():
        fired = t // 1000
        assert np.all(t % 1000 == 0) and np.unique(fired).size == fired.size
        pattern[fired] |= 1 << det
    observed = np.bincount(pattern, minlength=16)
    table = np.array(click_pattern_table(model, mean, efficiency))
    assert observed[table == 0].sum() == 0  # bunching's cross-side patterns
    observed, expected = observed[table > 0], slots * table[table > 0]
    order = np.argsort(expected)
    pooled = order[: np.searchsorted(np.cumsum(expected[order]), 5.0) + 1]
    kept = order[pooled.size :]
    observed = np.append(observed[kept], observed[pooled].sum())
    expected = np.append(expected[kept], expected[pooled].sum())
    assert stats.chisquare(observed, expected).pvalue > 1e-4


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


def test_calibration_fitted_aggregates_show_the_first_order_bias():
    # the closed-form fit inverts x and x^2; the table states q and q^2
    block = REFERENCE_BLOCKS["block1"]
    result = calibrate(block)
    x = 0.022 * result.efficiency / 4
    bias = -math.expm1(-x) / x
    pred = predicted_rates(
        RoutingModel.PHASE_BASIS, 0.022, result.slot_rate, result.efficiency, dark_rate=0.0
    )
    s_bar = sum(block.singles.values()) / 4
    p_bar = sum(block.pairs.values()) / 4
    assert pred.singles[Detector.A1] / s_bar - 1 == pytest.approx(bias - 1, rel=1e-12)
    assert pred.pairs[PAIR_KEYS[0]] / p_bar - 1 == pytest.approx(bias**2 - 1, rel=1e-12)
    assert bias - 1 == pytest.approx(-0.0016, abs=5e-5)
    # counters that equal their aggregates carry the bias as their residuals
    flat = dataclasses.replace(
        block, singles=dict.fromkeys(block.singles, s_bar), pairs=dict.fromkeys(block.pairs, p_bar)
    )
    residuals = calibrate(flat).residuals
    for name, value in residuals.items():
        if name.startswith("single"):
            assert value == pytest.approx(bias - 1, rel=1e-12), name
        elif name.startswith("pair"):
            assert value == pytest.approx(bias**2 - 1, rel=1e-12), name
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


def test_calibrating_a_tally_needs_its_mean_photon_number():
    # a TallyTable records no mean photon number, unlike a ReferenceBlock
    block = REFERENCE_BLOCKS["block1"]
    tally = TallyTable(block.singles, block.pairs, block.triples, block.acquisition_s)
    with pytest.raises(ValueError, match="needs mean_photon_number"):
        calibrate(tally)
    assert calibrate(tally, block.mean_photon_number) == calibrate(block)


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
def test_equal_ratio_chisquare_statistic_equals_scipy_stats(counts):
    stat, p = equal_ratio_chisquare(counts)
    assert stat == float(stats.chisquare(np.asarray(counts, dtype=float)).statistic)
    assert p == chi_square_tail(len(counts) - 1, stat)


def chi_square_tail_bound(x):
    # Q at k = 1 is erfc(sqrt(x/2)), whose relative condition number grows
    # like x/2: rounding x alone moves it by ~(x/2) ulp, so a fixed bound
    # cannot hold there. scipy's chdtrc errs by 8.7e-14 at x = 1400, within
    # this bound, and by 2.9e-14 at x = 2.1, beyond it.
    return 8 * (1 + x / 2) * 2.0**-52


TAIL_POINTS = [0.0, 5e-324, 1e-300, 1e-10, 1e-3, 0.5, 1.0, 2.0, 3.5, 7.0, 13.0, 30.0, 100.0, 299.7, 640.0, 1000.5, 1399.9]


@pytest.mark.parametrize("k", range(1, 14))
def test_chi_square_tail_matches_mpmath(k):
    points = TAIL_POINTS + list(np.random.default_rng(k).uniform(0, 1400, 200))
    for x in points:
        with mpmath.workdps(40):
            exact = mpmath.gammainc(mpmath.mpf(k) / 2, mpmath.mpf(x) / 2, regularized=True)
            error = abs(mpmath.mpf(chi_square_tail(k, x)) - exact) / exact
        assert error <= chi_square_tail_bound(x), (k, x, float(error))


@given(k=st.integers(1, 13), x=st.floats(0, 1400), y=st.floats(0, 1400))
def test_chi_square_tail_is_a_tail_probability(k, x, y):
    assert chi_square_tail(k, 0.0) == 1.0
    lo, hi = sorted((x, y))
    q_lo, q_hi = chi_square_tail(k, lo), chi_square_tail(k, hi)
    assert 0.0 <= q_hi and q_lo <= 1.0
    # non-increasing in x, up to the rounding that the accuracy bound allows
    assert q_hi <= q_lo * (1 + 2 * chi_square_tail_bound(hi))


def test_chi_square_tail_of_an_infinite_statistic_is_zero():
    assert [chi_square_tail(k, math.inf) for k in (1, 2, 3, 4)] == [0.0] * 4


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


def test_scaling_check_names_the_first_key_that_differs_in_echo_order():
    low = tally_with_config(0.02, 50_000, 500, 40)
    high = tally_with_config(0.04, 100_000, 2_000, 320)
    high.metadata["config"]["seed"] = 2  # a new seed is allowed
    assert scaling_check(low, high)["pairs"] == pytest.approx(2.0, abs=1e-12)
    high.metadata["config"].update(window_ps=9_999, slot_rate=2e7, note="extra")
    with pytest.raises(ValueError, match="differ in slot_rate"):
        scaling_check(low, high)
    high.metadata["config"].update(window_ps=5_000, slot_rate=1e7)
    with pytest.raises(ValueError, match="differ in note"):
        scaling_check(low, high)


# --- Monte Carlo agreement ------------------------------------------------------


def mc_config(model, seed, slot_rate=1e7, nbar=0.022, duration=1.0):
    return SimConfig(
        source=SourceConfig(mean_photon_number=nbar, slot_rate=slot_rate, duration=duration, seed=seed),
        detectors=DetectorConfig(efficiency=0.5828, dark_rate=27.0),
        model=model,
        window_ps=5_000,
    )


@pytest.mark.parametrize(
    "model,seed,nbar,duration",
    [
        (RoutingModel.CLASSICAL, 101, 0.022, 1.0),
        (RoutingModel.PHASE_BASIS, 102, 0.022, 1.0),
        (RoutingModel.BUNCHING, 103, 0.022, 1.0),
        # at x = nbar * eta / 4 = 0.146 the table's first order in nbar lies
        # 7.5% above it on singles and 24% on triples, many sigma at these
        # counts; 100 ns slots keep dead time and jitter from joining slots
        (RoutingModel.CLASSICAL, 211, 1.0, 0.1),
        (RoutingModel.PHASE_BASIS, 212, 1.0, 0.1),
        (RoutingModel.BUNCHING, 213, 1.0, 0.1),
    ],
)
def test_simulation_matches_predictions(model, seed, nbar, duration):
    tally = simulate(mc_config(model, seed, nbar=nbar, duration=duration))
    pred = dict(predicted_rates(model, nbar, 1e7, 0.5828, 27.0).counters())
    for name, count, _ in tally.counters():
        mu = pred[name] * duration
        lo, hi = stats.poisson.interval(1 - 1e-4, mu) if mu > 0 else (0, 0)
        assert lo <= count <= hi, (name, count, mu)
    odds = prediction_odds(prediction_means(model, nbar, duration))
    print(f"{model.value}, mean {nbar}, {duration} s: an exact dead-time-free simulator passes with odds {odds:.4f}")


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