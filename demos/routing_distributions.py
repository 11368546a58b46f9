# Exact routing distributions next to sampled frequencies, for each model
# and small photon numbers. The phase-basis and classical columns agree at
# every n: both are binomial. Bunching, a whole slot through one port, is
# the odd one out.

import math

import numpy as np

from bunchsim.photon_source import substream
from bunchsim.routing_models import RoutingModel, route_counts

SAMPLES = 200_000


def exact_distribution(model, n):
    """{(port1, port2): p}: a fair coin for the whole slot under bunching, else binomial."""
    if model is RoutingModel.BUNCHING and n:
        return {(n, 0): 0.5, (0, n): 0.5}
    return {(k, n - k): math.comb(n, k) / 2**n for k in range(n + 1)}


for n in range(5):
    print(f"--- {n} photon slot ---")
    for model in RoutingModel:
        exact = exact_distribution(model, n)
        rng = substream(2024, list(RoutingModel).index(model), n)
        port1 = route_counts(model, np.full(SAMPLES, n, dtype=np.int64), rng)
        cells = []
        for (k1, k2), p in sorted(exact.items()):
            freq = np.count_nonzero(port1 == k1) / SAMPLES
            cells.append(f"({k1},{k2}) {p:.4f}|{freq:.4f}")
        print(f"  {model.value:12} " + "  ".join(cells))
print()
print("left number of each pair is exact, right is sampled over", SAMPLES)
