"""Slow reference implementations the fast library paths are checked against.

A dense source that inverts the Poisson CDF for every slot, one-slot
routing, per-slot detection with a scalar dead-time check, grouping of
interleaved (detector, time) events into streams, event dumps written and
read one struct record or text line at a time, and the click-pattern table
as a Poisson sum over enumerated photon numbers. traced_peak measures the
memory the fast paths hold.
"""

from __future__ import annotations

import math
import struct
import tracemalloc
from typing import NamedTuple

import numpy as np

from bunchsim.detector_bank import LABEL_TO_DETECTOR, Detector, click_probability
from bunchsim.photon_source import (
    CHUNK_SLOTS,
    STREAM_SOURCE,
    num_chunks,
    poisson_cdf_table,
    slot_count,
    substream,
)
from bunchsim.routing_models import ENUM_MAX_N, RoutingModel, route_counts
from bunchsim.statistics import detector_outcome_distribution


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


def traced_peak(fn, *args) -> int:
    """Peak bytes traced by tracemalloc while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
