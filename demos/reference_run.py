# Full-scale reproduction of the bundled reference run: one second of
# phase-basis slots at the block-1 operating point, counted the same way the
# hardware counts, then printed next to the reference numbers.
#
# Takes ~1.0-1.1 s wall, interpreter start included, on a 2-core Intel Xeon
# host; writes reports under demo_out/reference_run/.

import time

from bunchsim.cli_harness import parse_config, run_experiment
from bunchsim.coincidence_unit import REFERENCE_PAIRS, TRIPLE_KEYS, counter_name
from bunchsim.detector_bank import Detector
from bunchsim.statistics import REFERENCE_BLOCKS

cfg = parse_config(
    "preset = table1-block1\n"
    "model = phase-basis\n"
    "seed = 44\n"
    "output_dir = demo_out/reference_run\n"
)

start = time.perf_counter()
tally, corr = run_experiment(cfg)
elapsed = time.perf_counter() - start

block = REFERENCE_BLOCKS["block1"]
print(f"simulated {tally.metadata['slots']} slots in {elapsed:.1f} s")
print()
print(f"{'counter':16} {'simulated':>10} {'reference':>10} {'rel diff':>9}")
for det in Detector:
    sim, ref = tally.singles[det], block.singles[det]
    print(f"{counter_name('single', det):16} {sim:10d} {ref:10.1f} {sim / ref - 1:+9.2%}")
for key in REFERENCE_PAIRS:
    sim, ref = tally.pairs[key], block.pairs[key]
    print(f"{counter_name('pair', key):16} {sim:10d} {ref:10.2f} {sim / ref - 1:+9.2%}")
for key in TRIPLE_KEYS:
    sim, ref = tally.triples[key], block.triples[key]
    print(f"{counter_name('triple', key):16} {sim:10d} {ref:10.2f} {'':>9}")

print()
print(f"bunching fraction {corr.bunching_fraction:.4f}   g2 cross {corr.g2_cross:.4f}   g2 same {corr.g2_same:.4f}")
print("triples sit at ~2 counts, so Poisson noise dominates that row")