"""Slow reference implementations the fast library paths are checked against.

A dense source that inverts the Poisson CDF for every slot, a stand-in
generator that yields given raw words, numpy's binomial inversion loop on
one raw word, one-slot routing, per-slot detection with a scalar dead-time
check, grouping of interleaved (detector, time) events into streams, event
dumps written and read one struct record or text line at a time, exact
enumeration of each model's routing and detector occupancies for one
n-photon slot, and the click-pattern table as a Poisson sum over those
enumerations, the whole-stream click side that holds every click of an
acquisition before it merges, filters or counts any, and the first and
last gaps found by one sort of every event. traced_peak measures
the memory the fast paths hold.
"""

from __future__ import annotations

import math
import struct
import tracemalloc
from typing import NamedTuple

import numpy as np

from bunchsim.coincidence_unit import accumulate
from bunchsim.detector_bank import Detector, apply_dead_time, click_probability, dark_events
from bunchsim.photon_source import (
    CHUNK_SLOTS,
    STREAM_DARK,
    STREAM_SOURCE,
    num_chunks,
    poisson_cdf_table,
    slot_count,
    substream,
)
from bunchsim.routing_models import RoutingModel, route_counts
from bunchsim.simulate import _simulate_chunk

ENUM_MAX_N = 12


def dense_chunk(config, chunk_index: int) -> tuple[int, np.ndarray]:
    """(start_index, photon number of every slot) for one canonical chunk."""
    total = slot_count(config)
    start = chunk_index * CHUNK_SLOTS
    m = min(CHUNK_SLOTS, total - start)
    u = substream(config.seed, STREAM_SOURCE, chunk_index).random(m)
    table = poisson_cdf_table(config.mean_photon_number)
    return start, np.searchsorted(table, u, side="right").astype(np.int64)


def dense_stream(config) -> np.ndarray:
    """Photon number of every slot of the run, in slot order."""
    return np.concatenate([dense_chunk(config, i)[1] for i in range(num_chunks(config))])


def route(model: RoutingModel, n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Route one slot of n photons; returns (port1, port2) with port1+port2 = n."""
    p1 = int(route_counts(model, np.array([n]), rng)[0])
    return p1, int(n) - p1


class Words:
    """Stands in for a generator whose bit generator yields the given raw words.

    It has no state to save or restore and no sampler of its own, so a fast
    path that falls back to one fails on it.
    """

    state = None

    def __init__(self, words):
        self.bit_generator = self
        self._words = words

    def random_raw(self, size):
        out, self._words = self._words[:size], self._words[size:]
        return out

    @property
    def left(self) -> int:
        return len(self._words)


def binomial_inversion(n: int, word: int):
    """numpy's binomial(n, 1/2) inversion loop (random_binomial_inversion) on one raw word.

    For 1 <= n <= 60, where numpy inverts one uniform U = (word >> 11) *
    2^-53. Returns X, or "redraw" when the loop runs past n, where numpy
    draws another word and starts again.
    """
    q = 0.5
    px = math.exp(n * math.log(q))
    u = (word >> 11) * 2.0**-53
    x = 0
    while u > px:
        x += 1
        if x > n:  # numpy's bound, min(n, np + 10 sqrt(np q + 1)), is n up to n = 103
            return "redraw"
        u -= px
        px = ((n - x + 1) * 0.5 * px) / (x * q)
    return x


class DetectionEvent(NamedTuple):
    detector: Detector
    time_ps: int


def split_to_detectors(port1: int, port2: int, rng: np.random.Generator) -> np.ndarray:
    """Fair 50/50 split of one slot's port photons; length-4 array indexed by Detector."""
    if port1 < 0 or port2 < 0:
        raise ValueError("port occupancies must be >= 0")
    a1 = rng.binomial(port1, 0.5)
    b1 = rng.binomial(port2, 0.5)
    return np.array([a1, port1 - a1, b1, port2 - b1], dtype=np.int64)


def detect_slot(counts, slot_time_ps: int, config, rng: np.random.Generator, last_click_ps: dict | None = None):
    """Clicks for one slot's per-detector photon counts.

    If last_click_ps (a mutable Detector -> time mapping) is given, clicks
    inside the dead time of that detector's previous registered click are
    suppressed and the mapping is updated in place.
    """
    if slot_time_ps < 0:
        raise ValueError("slot_time_ps must be >= 0")
    events = []
    for det in Detector:
        k = int(counts[det])
        if k < 1:
            continue
        if rng.random() >= click_probability(k, config.efficiency):
            continue
        t = float(slot_time_ps)
        if config.jitter_sigma_ps > 0:
            t += rng.normal(0.0, config.jitter_sigma_ps)
        t_ps = max(int(round(t)), 0)
        if last_click_ps is not None:
            prev = last_click_ps.get(det)
            if prev is not None and t_ps - prev < config.dead_time_ps:
                continue  # suppressed: non-paralyzable, window not extended
            last_click_ps[det] = t_ps
        events.append(DetectionEvent(det, t_ps))
    return events


def streams_from_events(events) -> dict[Detector, np.ndarray]:
    """Group an interleaved (detector, time) event sequence into sorted streams.

    Only timestamps matter, so any interleaving of the same events yields the
    same streams.
    """
    collected: dict[Detector, list[int]] = {det: [] for det in Detector}
    for det, t in events:
        collected[Detector(det)].append(int(t))
    return {det: np.sort(np.asarray(ts, dtype=np.int64)) for det, ts in collected.items()}


RECORD = struct.Struct("<BQ")
LABEL_TO_DETECTOR = {det.label: det for det in Detector}


def write_events(path, events_by_detector: dict, fmt: str) -> None:
    with open(path, "w" if fmt == "text" else "wb") as fh:
        for det in Detector:
            for t in np.asarray(events_by_detector.get(det, ()), dtype=np.int64):
                if fmt == "text":
                    fh.write(f"{det.label}\t{int(t)}\n")
                else:
                    fh.write(RECORD.pack(det, int(t)))


def read_events(path, fmt: str) -> dict:
    collected = {det: [] for det in Detector}
    if fmt == "text":
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    label, t = line.split("\t")
                    collected[LABEL_TO_DETECTOR[label]].append(int(t))
    else:
        with open(path, "rb") as fh:
            for det_id, t in RECORD.iter_unpack(fh.read()):
                collected[Detector(det_id)].append(t)
    return {det: np.asarray(ts, dtype=np.int64) for det, ts in collected.items()}


def enumerate_distribution(model: RoutingModel, n: int) -> dict[tuple[int, int], float]:
    """Exact outcome probabilities {(port1, port2): p} for an n-photon slot.

    All probabilities are dyadic rationals, hence exact in binary floats.
    Enumeration is capped at n = 12; the regime of interest never reaches it.
    """
    if not 0 <= n <= ENUM_MAX_N:
        raise ValueError(f"n must be in [0, {ENUM_MAX_N}], got {n}")
    if n == 0:
        return {(0, 0): 1.0}
    if model is RoutingModel.BUNCHING:
        return {(n, 0): 0.5, (0, n): 0.5}
    if model is RoutingModel.PHASE_BASIS and n == 2:
        return {(2, 0): 0.25, (0, 2): 0.25, (1, 1): 0.5}
    scale = 2.0**n
    return {(k, n - k): math.comb(n, k) / scale for k in range(n, -1, -1)}


def detector_outcome_distribution(model: RoutingModel, n: int) -> dict[tuple, float]:
    """Exact distribution of the 4-detector photon occupancy for an n-photon slot.

    Composes the first-splitter routing distribution with the exact binomial
    split of each port onto its detector pair. Dyadic probabilities, so the
    composition is exact in floats.
    """
    out: dict[tuple, float] = {}
    for (p1, p2), p_route in enumerate_distribution(model, n).items():
        for a1 in range(p1 + 1):
            w_a = math.comb(p1, a1) / 2.0**p1
            for b1 in range(p2 + 1):
                w_b = math.comb(p2, b1) / 2.0**p2
                key = (a1, p1 - a1, b1, p2 - b1)
                out[key] = out.get(key, 0.0) + p_route * w_a * w_b
    return out


def pair_pattern_probability(model: RoutingModel, pair) -> float:
    """P2: probability a 2-photon slot lands exactly one photon on each of `pair`."""
    dist = detector_outcome_distribution(model, 2)
    want = [1 if det in pair else 0 for det in Detector]
    return dist.get(tuple(want), 0.0)


def triple_pattern_probability(model: RoutingModel, triple) -> float:
    """P3: probability a 3-photon slot lands exactly one photon on each of `triple`."""
    dist = detector_outcome_distribution(model, 3)
    want = [1 if det in triple else 0 for det in Detector]
    return dist.get(tuple(want), 0.0)


def enumerated_click_table(model: RoutingModel, mean_photon_number: float, efficiency: float) -> list[float]:
    """Per-slot click-pattern probabilities, entry m for the bitmask m of firing
    detectors, from the Poisson sum over n = 0..ENUM_MAX_N photons.

    Composes each photon number's exact outcome distribution with saturating
    click probabilities; it misses the Poisson tail P(N > ENUM_MAX_N).
    """
    fired = np.array([[mask >> det & 1 for det in Detector] for mask in range(16)], dtype=bool)
    table = np.zeros(16)
    weight = math.exp(-mean_photon_number)
    for n in range(ENUM_MAX_N + 1):
        if n:
            weight *= mean_photon_number / n  # Poisson pmf built iteratively
        outcomes = detector_outcome_distribution(model, n)
        click = click_probability(np.array(list(outcomes)), efficiency)[:, None, :]
        p_pattern = np.where(fired, click, 1.0 - click).prod(axis=2)  # (occupancy, mask)
        table += weight * (np.array(list(outcomes.values())) @ p_pattern)
    return table.tolist()


def gap_edges(streams, lo: int, hi: int, spread: int):
    """coincidence_unit.gap_edges by one sort of every event, in Python ints:
    (first, last), the times just after the first and the last gap > spread
    of the merged timeline of lo, the events and hi, or None if it has none."""
    times = sorted([lo, *(int(t) for stream in streams for t in stream), hi])
    gaps = [i for i in range(1, len(times)) if times[i] - times[i - 1] > spread]
    return (times[gaps[0]], times[gaps[-1]]) if gaps else None


def whole_stream_click_side(chunk_clicks, dark: dict, dead_time_ps: int, ccu):
    """(registered streams, tally) of every chunk's candidate clicks at once.

    Per detector, all candidates and the darks are merged and sorted, filtered
    for dead time in one pass and cut at the acquisition end; the four
    streams are then counted by one accumulate call.
    """
    acq_ps = int(round(ccu.acquisition_s * 1e12))
    streams = {}
    for det in Detector:
        merged = np.sort(np.concatenate([clicks[det] for clicks in chunk_clicks] + [dark[det]]))
        registered = apply_dead_time(merged, dead_time_ps)
        streams[det] = registered[: np.searchsorted(registered, acq_ps)]
    return streams, accumulate(streams, ccu)


def whole_stream_runs(config, models) -> list[tuple[dict, object]]:
    """[(streams, tally)] per model: the tallies simulate_streams returns and
    the registered streams its counted pieces join to, by the whole-stream
    click side over the same per-chunk candidates and darks."""
    src, detectors = config.source, config.detectors
    chunks = [_simulate_chunk(src, detectors, models, i) for i in range(num_chunks(src))]
    return [
        whole_stream_click_side(
            [chunk[m][0] for chunk in chunks],
            dark_events(detectors, src.duration, substream(src.seed, STREAM_DARK)),
            detectors.dead_time_ps,
            config.ccu,
        )
        for m in range(len(models))
    ]


def traced_peak(fn, *args) -> int:
    """Peak bytes traced by tracemalloc while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
