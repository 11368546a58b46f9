# The closed-form side of the package: fit slot rate and efficiency from the
# bundled reference counters, check the fit against the counters it did not
# use, then verify the n / n^2 / n^3 scaling of singles / pairs / triples on
# two quick simulated acquisitions.

from bunchsim.detector_bank import DetectorConfig
from bunchsim.photon_source import SourceConfig
from bunchsim.routing_models import RoutingModel
from bunchsim.simulate import SimConfig, simulate
from bunchsim.statistics import REFERENCE_BLOCKS, calibrate, predicted_rates, scaling_check

for name in ("block1", "block2"):
    block = REFERENCE_BLOCKS[name]
    fit = calibrate(block)
    worst = max(abs(v) for v in fit.residuals.values())
    print(
        f"{name}: mean photon number {block.mean_photon_number}  ->  "
        f"slot rate {fit.slot_rate:.3e}/s, efficiency {fit.efficiency:.4f}, "
        f"worst residual {worst:+.1%}"
    )

fit = calibrate(REFERENCE_BLOCKS["block1"])
pred = predicted_rates(RoutingModel.PHASE_BASIS, 0.022, fit.slot_rate, fit.efficiency, 27.0)
print()
print("closed-form rates at the block-1 operating point (per second):")
for counter, rate in pred.counters():
    print(f"  {counter:18} {rate:12.2f}")


def run(nbar, seed):
    cfg = SimConfig(
        source=SourceConfig(mean_photon_number=nbar, slot_rate=2e7, duration=1.0, seed=seed),
        detectors=DetectorConfig(efficiency=1.0, dark_rate=0.0),
        window_ps=5_000,
    )
    return simulate(cfg, RoutingModel.PHASE_BASIS)


low, high = run(0.05, 31), run(0.10, 32)
exponents = scaling_check(low, high)
print()
print("doubling the mean photon number, fitted exponents per counter class:")
for cls, exp in exponents.items():
    print(f"  {cls:8} {exp:.3f}")
print("(expected 1, 2, 3: counters scale like n, n^2, n^3 in the dilute regime)")