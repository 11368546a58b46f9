"""End-to-end slot simulation: source -> splitter -> detectors -> tally.

The stream is processed in fixed canonical chunks (photon_source.CHUNK_SLOTS)
and every random draw comes from a substream keyed by (seed, purpose, chunk),
so the result is byte-identical for any worker count and any chunk schedule.
Worker processes only compute per-chunk candidate clicks; dark counts and the
dead-time filter run once on the merged per-detector streams, because dead
time couples events across chunk boundaries.

Per chunk the engine holds the occupied slots as int32 offsets and int16
photon numbers, and per model one int16 port row and four int16 count rows.
No full-length slot-time array is built: the slot clock
rint((start + offset) / slot_rate * 1e12) is evaluated only for the slots
that fire, with each offset widened to int64 before start is added.

Several routing models run in one pass: each chunk's occupied slots are drawn
once, then routed, split and detected once per model. The routing
and detection substreams do not depend on the model, so each model gets the
same draws, and the same output, as it would alone.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .coincidence_unit import CcuConfig, TallyTable, accumulate
from .detector_bank import (
    Detector,
    DetectorConfig,
    apply_dead_time,
    dark_events,
    detect_counts,
    split_counts,
)
from .photon_source import (
    STREAM_DARK,
    STREAM_DETECT,
    STREAM_ROUTING,
    SourceConfig,
    num_chunks,
    occupied_slots,
    slot_count,
    substream,
)
from .routing_models import RoutingModel, phase_basis_fallback_count, route_counts


# Slot times are computed in float64 and are exact integers only below 2^53 ps.
_MAX_DURATION_PS = 2**53


@dataclass(frozen=True)
class SimConfig:
    """One acquisition: the source's duration is the counted stream, [0, duration)."""

    source: SourceConfig
    detectors: DetectorConfig
    model: RoutingModel
    window_ps: int

    def __post_init__(self):
        # compared as a float, so that a duration beyond the int range is
        # rejected too; round(x) >= 2^53 exactly when x >= 2^53
        if self.source.duration * 1e12 >= _MAX_DURATION_PS:
            raise ValueError(
                f"stream of {self.source.duration} s reaches 2^53 ps, beyond which "
                "slot times are not exact"
            )
        self.ccu  # CcuConfig checks the window

    @property
    def ccu(self) -> CcuConfig:
        return CcuConfig(self.window_ps, self.source.duration)


def config_metadata(config: SimConfig) -> dict:
    """Flat, JSON-friendly description of a run; deliberately excludes
    anything execution-dependent (worker count, wall clock) so outputs of
    equivalent runs compare byte-for-byte."""
    return {
        "model": config.model.value,
        "mean_photon_number": config.source.mean_photon_number,
        "slot_rate": config.source.slot_rate,
        "seed": config.source.seed,
        "efficiency": config.detectors.efficiency,
        "dark_rate": config.detectors.dark_rate,
        "dead_time_ps": config.detectors.dead_time_ps,
        "jitter_sigma_ps": config.detectors.jitter_sigma_ps,
        "window_ps": config.window_ps,
        "acquisition_s": config.source.duration,
    }


def _simulate_chunk(args: tuple) -> list[tuple[dict, int]]:
    """Candidate clicks and fallback slots of every model for one chunk.

    Top-level so process pools can pickle it.
    """
    src, detectors, models, chunk_index = args
    start, occupied, k = occupied_slots(src, chunk_index)
    if occupied.size == 0:
        return [({det: np.empty(0, dtype=np.int64) for det in Detector}, 0) for _ in models]

    def slot_time(idx):
        # nominal slot centres, exact because SimConfig caps the duration below
        # 2^53 ps; the int32 offsets are widened before start is added
        return np.rint((start + occupied[idx].astype(np.int64)) / src.slot_rate * 1e12).astype(np.int64)

    results = []
    for model in models:
        route_rng = substream(src.seed, STREAM_ROUTING, chunk_index)
        port1 = route_counts(model, k, route_rng)
        counts = split_counts(port1, k - port1, route_rng)
        del port1
        clicks = detect_counts(counts, slot_time, detectors, substream(src.seed, STREAM_DETECT, chunk_index))
        results.append((clicks, phase_basis_fallback_count(model, k)))
    return results


def simulate_streams(configs, workers: int = 1, progress=None) -> list[tuple[dict, dict]]:
    """Run the full pipeline for configs that differ only in their model.

    Returns [(per-detector sorted streams, metadata)] in the order of configs.
    Streams are dead-time filtered and cut to the acquisition [0, duration).
    progress, if given, is called as progress(done_chunks, total_chunks).
    """
    configs = list(configs)
    if not configs:
        raise ValueError("simulate_streams: need at least one config")
    base = configs[0]
    if any(replace(c, model=base.model) != base for c in configs[1:]):
        raise ValueError("simulate_streams: configs may differ only in model")
    src, detectors = base.source, base.detectors

    chunks = num_chunks(src)
    models = [c.model for c in configs]
    tasks = [(src, detectors, models, i) for i in range(chunks)]
    per_model = [{det: [] for det in Detector} for _ in configs]
    fallback_slots = [0] * len(configs)

    def consume(i, results):
        for m, (clicks, fallback) in enumerate(results):
            fallback_slots[m] += fallback
            for det in Detector:
                per_model[m][det].append(clicks[det])
        if progress is not None:
            progress(i + 1, chunks)

    if workers > 1 and chunks > 1:
        with ProcessPoolExecutor(max_workers=min(workers, chunks)) as pool:
            for i, results in enumerate(pool.map(_simulate_chunk, tasks)):
                consume(i, results)
    else:
        for i, task in enumerate(tasks):
            consume(i, _simulate_chunk(task))

    acq_ps = int(round(src.duration * 1e12))
    runs = []
    for m, config in enumerate(configs):
        # darks are few; drawing them per model from the same substream keeps one
        # dark_events call per run, which perfbench's click accounting relies on
        dark = dark_events(detectors, src.duration, substream(src.seed, STREAM_DARK))
        streams = {}
        for det in Detector:
            merged = np.concatenate(per_model[m].pop(det) + [dark[det]])  # pop: drop merged candidates
            merged.sort()
            registered = apply_dead_time(merged, detectors.dead_time_ps)
            # sorted, so the cut to the acquisition is a prefix view, not a copy
            streams[det] = registered[: np.searchsorted(registered, acq_ps)]
        metadata = {
            "config": config_metadata(config),
            "slots": slot_count(src),
            "phase_basis_fallback_slots": int(fallback_slots[m]),
        }
        runs.append((streams, metadata))
    return runs


def simulate(config: SimConfig, workers: int = 1, progress=None) -> TallyTable:
    """Simulate one acquisition and count every singles/pair/triple channel."""
    [(streams, metadata)] = simulate_streams([config], workers=workers, progress=progress)
    return accumulate(streams, config.ccu, metadata=metadata)
