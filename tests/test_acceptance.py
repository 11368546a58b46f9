"""End-to-end acceptance gate.

One test function per criterion; `pytest tests/test_acceptance.py -v` prints one
pass/fail line for each. Every pinned seed was checked against its tolerance
band before being frozen here; the bands themselves are the contract, the
seeds just make the gate deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from bunchsim.bs_algebra import (
    Combination,
    PhaseBasis,
    apply_same_basis,
    intensity,
    superpose_opposite,
)
from bunchsim.cli_harness import parse_config, run_experiment
from bunchsim.coincidence_unit import (
    CROSS_SIDE_PAIRS,
    REFERENCE_PAIRS,
    SAME_SIDE_PAIRS,
)
from bunchsim.detector_bank import Detector, DetectorConfig
from bunchsim.photon_source import SourceConfig, substream
from bunchsim.routing_models import RoutingModel, route_counts
from bunchsim.simulate import SimConfig, simulate
from bunchsim.statistics import (
    REFERENCE_BLOCKS,
    accidental_pair_rate,
    calibrate,
    equal_ratio_chisquare,
    g2_zero,
    predicted_rates,
    scaling_check,
)
from oracles import enumerate_distribution

CAL = calibrate(REFERENCE_BLOCKS["block1"])
BLOCK1 = REFERENCE_BLOCKS["block1"]


def sim_config(model, nbar, seed, efficiency=CAL.efficiency, dark_rate=27.0,
               slot_rate=CAL.slot_rate, duration=1.0):
    return SimConfig(
        source=SourceConfig(mean_photon_number=nbar, slot_rate=slot_rate,
                            duration=duration, seed=seed),
        detectors=DetectorConfig(efficiency=efficiency, dark_rate=dark_rate),
        model=model,
        window_ps=5_000,
    )


@pytest.fixture(scope="session")
def block1_run():
    start = time.perf_counter()
    tally = simulate(sim_config(RoutingModel.PHASE_BASIS, 0.022, seed=44))
    return tally, time.perf_counter() - start


@pytest.fixture(scope="session")
def block2_runs():
    return {
        "phase-basis": simulate(sim_config(RoutingModel.PHASE_BASIS, 0.044, seed=7)),
        "classical": simulate(sim_config(RoutingModel.CLASSICAL, 0.044, seed=8)),
    }


@pytest.fixture(scope="session")
def bunching_dark_run():
    return simulate(sim_config(RoutingModel.BUNCHING, 0.022, seed=9))


@pytest.fixture(scope="session")
def bunching_clean_run():
    return simulate(sim_config(RoutingModel.BUNCHING, 0.044, seed=10,
                               dark_rate=0.0, slot_rate=1e7))


@pytest.fixture(scope="session")
def scaling_runs():
    low = simulate(sim_config(RoutingModel.PHASE_BASIS, 0.022, seed=21,
                              efficiency=1.0, dark_rate=0.0, duration=3.5))
    high = simulate(sim_config(RoutingModel.PHASE_BASIS, 0.044, seed=22,
                               efficiency=1.0, dark_rate=0.0, duration=3.5))
    return low, high


def test_criterion_1_field_amplitudes_exact():
    tol = 1e-12
    sym = superpose_opposite(1.0, Combination.SYMMETRIC)
    anti = superpose_opposite(1.0, Combination.ANTISYMMETRIC)
    assert abs(sym[0] - math.sqrt(2)) <= tol and abs(sym[1]) <= tol
    assert abs(anti[0]) <= tol and abs(anti[1] - math.sqrt(2) * 1j) <= tol
    for basis, sign in ((PhaseBasis.PLUS, 1j), (PhaseBasis.MINUS, -1j)):
        out = apply_same_basis(math.sqrt(2), basis)
        assert abs(out[0] - 1.0) <= tol and abs(out[1] - sign) <= tol
        assert abs(intensity(out[0]) - 1.0) <= tol
        assert abs(intensity(out[1]) - 1.0) <= tol
    print("criterion 1: split/bunch field amplitudes exact to 1e-12")


def test_criterion_2_routing_matches_enumeration():
    samples = 1_000_000
    worst = 0.0
    for index, model in enumerate(RoutingModel):
        for n in range(5):
            rng = substream(202, index, n)
            port1 = route_counts(model, np.full(samples, n, dtype=np.int64), rng)
            for (k1, _), prob in enumerate_distribution(model, n).items():
                observed = int(np.sum(port1 == k1))
                sigma = math.sqrt(samples * prob * (1 - prob))
                if sigma == 0.0:
                    assert observed == round(samples * prob)
                else:
                    assert abs(observed - samples * prob) <= 3 * sigma, (model, n, k1)
                    worst = max(worst, abs(observed - samples * prob) / sigma)
    print(f"criterion 2: 1e6-sample frequencies within 3 sigma (worst {worst:.2f})")


def test_criterion_3_reference_table_reproduction(block1_run):
    tally, elapsed = block1_run
    assert elapsed < 60.0, f"run took {elapsed:.1f}s"
    for det in Detector:
        observed, target = tally.singles[det], BLOCK1.singles[det]
        assert abs(observed - target) / target <= 0.03, (det.label, observed, target)
    for key in REFERENCE_PAIRS:
        assert abs(tally.pairs[key] - 805.0) <= 80.5, (key, tally.pairs[key])
    for key, observed in tally.triples.items():
        assert abs(observed - 2.3) <= 0.35 * 2.3, (key, observed)
    print(f"criterion 3: singles +/-3%, pairs +/-10%, triples +/-35% ({elapsed:.1f}s)")


def test_criterion_4_equal_ratio_claim(block2_runs, bunching_dark_run):
    for name, tally in block2_runs.items():
        counts = [tally.pairs[key] for key in REFERENCE_PAIRS]
        _, p = equal_ratio_chisquare(counts)
        assert p > 0.01, (name, counts, p)
    bunched = [bunching_dark_run.pairs[key] for key in REFERENCE_PAIRS]
    _, p_bunch = equal_ratio_chisquare(bunched)
    assert p_bunch < 1e-6, bunched
    # cross-side pairs must be explainable by dark-count accidentals alone
    prediction = predicted_rates(RoutingModel.BUNCHING, 0.022, CAL.slot_rate,
                                 CAL.efficiency, dark_rate=27.0)
    for key in CROSS_SIDE_PAIRS:
        ceiling = stats.poisson.ppf(1 - 1e-4, prediction.pairs[key])
        assert bunching_dark_run.pairs[key] <= ceiling, (key, bunching_dark_run.pairs[key])
    print(f"criterion 4: equal-ratio p>{0.01} for classical/phase-basis, bunching p={p_bunch:.1e}")


def test_criterion_5_bunching_fraction(block2_runs, bunching_clean_run):
    for name, tally in block2_runs.items():
        total = sum(tally.pairs.values())
        assert total >= 10_000, (name, total)
        fraction = g2_zero(tally, CAL.slot_rate).bunching_fraction
        assert abs(fraction - 0.50) <= 0.02, (name, fraction)
    clean = g2_zero(bunching_clean_run, 1e7).bunching_fraction
    assert clean == 1.0
    assert sum(bunching_clean_run.pairs[k] for k in SAME_SIDE_PAIRS) > 0
    print("criterion 5: fractions 0.50 +/- 0.02 (split models), 1.00 (bunching)")


def test_criterion_6_scaling_law(scaling_runs):
    low, high = scaling_runs

    def class_ratio(table):
        lo, hi = getattr(low, table).values(), getattr(high, table).values()
        return (sum(hi) / len(hi)) / (sum(lo) / len(lo))

    ratios = {name: class_ratio(name) for name in ("singles", "pairs", "triples")}
    assert abs(ratios["singles"] - 2.0) <= 0.1, ratios
    assert abs(ratios["pairs"] - 4.0) <= 0.4, ratios
    assert abs(ratios["triples"] - 8.0) <= 2.0, ratios
    exponents = scaling_check(low, high)
    for name in ratios:
        assert 2.0 ** exponents[name] == pytest.approx(ratios[name], rel=1e-12)
    print("criterion 6: doubling ratios {singles:.2f}/{pairs:.2f}/{triples:.2f}".format(**ratios))


def test_criterion_7_dark_count_floor():
    tally = simulate(sim_config(RoutingModel.PHASE_BASIS, 0.0, seed=11, slot_rate=1e6))
    for det in Detector:
        assert abs(tally.singles[det] - 27) <= 16, (det.label, tally.singles[det])
    accidental = accidental_pair_rate(27.0, 27.0, 5_000)
    ceiling = stats.poisson.ppf(1 - 1e-4, accidental * tally.acquisition_s)
    assert all(count <= ceiling for count in tally.pairs.values())
    print(f"criterion 7: dark singles {sorted(tally.singles.values())}, pairs <= {ceiling:.0f}")


def test_criterion_8_worker_count_invariance(tmp_path):
    def run(workers):
        out = tmp_path / f"w{workers}"
        cfg = parse_config(
            "model = phase-basis\nmean_photon_number = 0.044\nseed = 42\n"
            f"slot_rate = 1e7\noutput_dir = {out}\n"
        )
        run_experiment(cfg, workers=workers)
        return {name: (out / name).read_bytes()
                for name in ("tally.csv", "analysis.csv", "run.json")}

    assert run(1) == run(3)
    print("criterion 8: byte-identical tally/analysis/metadata for 1 vs 3 workers")