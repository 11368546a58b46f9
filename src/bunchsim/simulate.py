"""End-to-end slot simulation: source -> splitter -> detectors -> tally.

The stream is processed in fixed canonical chunks (photon_source.CHUNK_SLOTS)
and every random draw comes from a substream keyed by (seed, purpose, chunk),
so the result is byte-identical for any worker count and any chunk schedule.
Worker processes only compute per-chunk candidate clicks. The click side
(merge with the darks, dead time, the cut at the acquisition end and
counting) runs in the main process, chunk by chunk in schedule order, with
carried state:

- one buffer per detector holds the raw events not yet counted: the
  candidates, and the darks (drawn once per model) below the chunk's
  watermark, the nominal time of the next chunk's first slot less the
  jitter's reach, below which no later candidate lies;
- each chunk, the events below the last gap of more than 2 * window in the
  merged four-detector timeline below the watermark, where a coincidence
  cluster is closed, go through dead time, the cut at the acquisition end
  and counting once, and the tallies of the pieces are added; the rest wait
  raw, with a wide jitter across several chunks;
- dead time carries each detector's last registered time across the edge.

So the run holds about one chunk's clicks at a time, not the acquisition's,
and keeps no registered stream: a consumer may take each counted piece.

Per chunk the engine holds the occupied slots as uint16 segment offsets
(photon_source.SegmentedSlots) and int16 photon numbers, the latter
dropped once the last model is routed, and per model its two int16 port
rows. It splits and detects port by port: a split writes its second row
over its port row, and each detector's int16 count row is freed once its
clicks are drawn. No full-length slot-time array is built: the slot clock
rint(slot / slot_rate * 1e12) is evaluated only for the slots that fire,
on int64 slot indices widened from their offsets. The click side lets go
of each detector's pre-feed buffer once its remainder replaces it.

Several routing models run in one pass: each chunk's occupied slots are drawn
once, then routed, split and detected once per model. The routing
and detection substreams do not depend on the model, so each model gets the
same draws, and the same output, as it would alone.
"""

from __future__ import annotations

import concurrent.futures
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, coincidence_unit
from .coincidence_unit import COUNTERS, PAIR_KEYS, TRIPLE_KEYS, CcuConfig, TallyTable
from .detector_bank import (
    MAX_DARK_MEAN,
    MAX_PS,
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
    check_rules,
    chunk_start,
    num_chunks,
    occupied_slots,
    slot_count,
    substream,
)
from .routing_models import RoutingModel, phase_basis_fallback_count, route_counts


@dataclass(frozen=True)
class SimConfig:
    """One acquisition: the source's duration is the counted stream, [0, duration)."""

    source: SourceConfig
    detectors: DetectorConfig
    model: RoutingModel
    window_ps: int

    def __post_init__(self):
        # slot times are computed in float64 and are exact integers only below
        # 2^53 ps; the duration is compared as a float, so that one beyond the
        # int range is rejected too, and round(x) >= 2^53 exactly when x >= 2^53
        check_rules(self, {"window_ps": CcuConfig.rules["window_ps"]}, [
            lambda c: c.source.duration * 1e12 < MAX_PS
            or f"stream of {c.source.duration} s reaches 2^53 ps, beyond which slot times are not exact",
            lambda c: c.detectors.dark_rate * c.source.duration <= MAX_DARK_MEAN
            or f"dark_rate * acquisition_s must not exceed {MAX_DARK_MEAN:.4g}",
        ])

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


def _slot_times(src: SourceConfig, slots: np.ndarray) -> np.ndarray:
    """Nominal int64 ps times of int64 slot indices, rint(slot / slot_rate * 1e12).

    Exact, because SimConfig caps the stream below 2^53 ps, and monotone in
    the slot index.
    """
    return np.rint(slots / src.slot_rate * 1e12).astype(np.int64)


def _simulate_chunk(src: SourceConfig, detectors: DetectorConfig, models, chunk_index: int) -> list[tuple[dict, int]]:
    """Candidate clicks and fallback slots of every model for one chunk.

    Top-level so process pools can pickle it.
    """
    slots, k = occupied_slots(src, chunk_index)

    def slot_time(rows):
        return _slot_times(src, slots.indices(rows))

    results = []
    for i, model in enumerate(models):
        route_rng = substream(src.seed, STREAM_ROUTING, chunk_index)
        port1 = route_counts(model, k, route_rng)
        fallback = phase_basis_fallback_count(model, k)
        ports = [port1, k - port1]
        del port1
        if i == len(models) - 1:
            del k  # the last model's port rows are all that is left of it
        # port by port, the routing substream draws route, port-1 split and
        # port-2 split, and the detection substream A', A'', B', B''
        detect_rng = substream(src.seed, STREAM_DETECT, chunk_index)
        clicks = {}
        for pair in ((Detector.A1, Detector.A2), (Detector.B1, Detector.B2)):
            rows = dict(zip(pair, split_counts(ports.pop(0), route_rng)))
            clicks |= detect_counts(rows, slot_time, detectors, detect_rng)
        results.append((clicks, fallback))
    return results


# numpy's normal sampler (Generator.normal) is a 256-layer ziggurat. Outside
# its tail it returns |x| < r = 3.6541528853610088, the base layer's edge. In
# the tail it returns r + a, a = -log1p(-u1) / r, accepted only when
# -2 * log1p(-u2) > a^2. Its uniforms are u = k * 2^-53 with k < 2^53, so
# -log1p(-u) <= 53 ln 2 and a < sqrt(2 * 53 ln 2) = 8.572: no draw lies more
# than 12.226 sigma from its mean. 12.3 sigma plus 2 ps also covers the float
# sum with the slot time and the rounding to whole picoseconds; the clip at
# t = 0 only moves a click later.
_JITTER_REACH_SIGMAS = 12.3

# the watermark of the last chunk, which releases every remaining event
_END = int(np.iinfo(np.int64).max)
_EMPTY = np.empty(0, dtype=np.int64)


def _watermarks(src: SourceConfig, detectors: DetectorConfig) -> list[int]:
    """Per chunk, a time that no candidate click of a later chunk lies below.

    The slot clock is monotone, so a later chunk's clicks lie at or after the
    nominal time of the next chunk's first slot, less the jitter's reach. The
    last chunk's is _END, which releases and counts every remaining event.
    """
    reach = math.ceil(_JITTER_REACH_SIGMAS * detectors.jitter_sigma_ps) + 2
    starts = np.array([chunk_start(i) for i in range(1, num_chunks(src))], dtype=np.int64)
    return [int(t) - reach for t in _slot_times(src, starts)] + [_END]


class _ClickSide:
    """Merge, dead time, cut and counting of one model's clicks, chunk by chunk.

    Fed each chunk's candidate clicks in schedule order with the chunk's
    watermark, the time no later candidate lies below. One buffer per
    detector holds the raw events not yet counted: candidates, and the darks
    below the watermark, taken off the front of the rest. Each feed finds
    the last closed cluster edge of the buffered events below the watermark
    (coincidence_unit), runs dead time, the cut at the acquisition end and
    counting on the events below it, hands that piece to on_piece if given,
    and keeps the rest raw. Dead time only removes events, so a gap of more
    than 2 * window in the raw timeline is at least as wide in the
    registered one, and no coincidence spans it. Each event is filtered and
    counted exactly once and in time order, so the result equals the
    whole-stream pass: merge, sort, apply_dead_time, cut at the acquisition
    end and accumulate.
    """

    def __init__(self, dead_time_ps: int, ccu: CcuConfig, dark: dict, on_piece=None):
        self.dead_time_ps = dead_time_ps
        self.ccu = ccu
        self.acq_ps = int(round(ccu.acquisition_s * 1e12))
        self.dark = dict(dark)  # sorted darks not yet buffered
        self.raw = dict.fromkeys(Detector, _EMPTY)  # sorted raw events, not yet counted
        self.last = dict.fromkeys(Detector)  # last registered time, for dead time
        self.on_piece = on_piece
        self.counts = {
            "singles": dict.fromkeys(Detector, 0),
            "pairs": dict.fromkeys(PAIR_KEYS, 0),
            "triples": dict.fromkeys(TRIPLE_KEYS, 0),
        }

    def feed(self, clicks: dict, watermark: int) -> None:
        """Take one chunk's candidate clicks, popping them from clicks once merged."""
        for det in Detector:
            k = int(np.searchsorted(self.dark[det], watermark))
            self.raw[det] = np.concatenate([self.raw[det], clicks.pop(det), self.dark[det][:k]])
            self.raw[det].sort()
            self.dark[det] = self.dark[det][k:]
        # no view of a buffer outlives the edge search or its detector's turn
        # below, so each pre-feed buffer goes once its remainder replaces it
        edge = coincidence_unit.closed_edge(
            [t[: np.searchsorted(t, watermark)] for t in self.raw.values()], watermark, self.ccu
        )
        piece = {}
        for det in Detector:
            k = int(np.searchsorted(self.raw[det], edge))
            registered = apply_dead_time(self.raw[det][:k], self.dead_time_ps, self.last[det])
            if registered.size:
                self.last[det] = int(registered[-1])
            piece[det] = registered[: np.searchsorted(registered, self.acq_ps)]
            if k:
                self.raw[det] = self.raw[det][k:].copy()
        if any(t.size for t in piece.values()):
            if self.on_piece is not None:
                self.on_piece(piece)
            # through its module, the call site perfbench's tracer wraps for event replays
            tally = coincidence_unit.accumulate(piece, self.ccu)
            for _, group, key in COUNTERS:
                self.counts[group][key] += getattr(tally, group)[key]

    def finish(self, metadata: dict) -> TallyTable:
        """The tally once every chunk is fed, counting what is left at _END
        first: a run of no chunks still has its darks."""
        self.feed(dict.fromkeys(Detector, _EMPTY), _END)
        return TallyTable(**self.counts, acquisition_s=self.ccu.acquisition_s, metadata=metadata)


def simulate_streams(configs, workers: int = 1, progress=None, on_piece=None) -> list[TallyTable]:
    """Run the full pipeline for configs that differ only in their model.

    Returns one TallyTable per config, in the order of configs. The clicks
    are merged, filtered and counted chunk by chunk, so no more than a
    chunk's clicks are held at a time. on_piece, if given, is called as
    on_piece(index, piece) with the index of a config in configs and each
    piece its click side counts: per-detector registered events, dead-time
    filtered and cut to the acquisition [0, duration), in time order, so
    that one config's pieces in turn make its registered streams. progress,
    if given, is called as progress(done_chunks, total_chunks).
    """
    if workers < 1:
        raise ValueError("workers: must be >= 1")
    configs = list(configs)
    if not configs:
        raise ValueError("simulate_streams: need at least one config")
    base = configs[0]
    if any(replace(c, model=base.model) != base for c in configs[1:]):
        raise ValueError("simulate_streams: configs may differ only in model")
    src, detectors = base.source, base.detectors

    chunks = num_chunks(src)
    job = (src, detectors, [c.model for c in configs])
    watermarks = _watermarks(src, detectors)

    def click_side(m):
        # darks are few; each model draws the same ones from the same substream,
        # one dark_events call per model, which perfbench's click accounting relies on
        dark = dark_events(detectors, src.duration, substream(src.seed, STREAM_DARK))
        sink = None if on_piece is None else lambda piece: on_piece(m, piece)
        return _ClickSide(detectors.dead_time_ps, base.ccu, dark, sink)

    sides = [click_side(m) for m in range(len(configs))]
    fallback_slots = [0] * len(configs)

    def consume(i, results):
        for m, (clicks, fallback) in enumerate(results):
            fallback_slots[m] += fallback
            sides[m].feed(clicks, watermarks[i])
        if progress is not None:
            progress(i + 1, chunks)

    if workers > 1 and chunks > 1:
        workers = min(workers, chunks)
        # looked up here, so that concurrent.futures loads its process pool,
        # and multiprocessing with it, only when a pool starts
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            # at most 2 * workers chunks are submitted and not yet consumed, so
            # results that wait for a slower click side stay bounded too
            ahead = deque(pool.submit(_simulate_chunk, *job, i) for i in range(min(2 * workers, chunks)))
            for i in range(chunks):
                results = ahead.popleft().result()
                if i + 2 * workers < chunks:
                    ahead.append(pool.submit(_simulate_chunk, *job, i + 2 * workers))
                consume(i, results)
    else:
        for i in range(chunks):
            consume(i, _simulate_chunk(*job, i))

    tallies = []
    for m, config in enumerate(configs):
        metadata = {
            "config": config_metadata(config),
            "slots": slot_count(src),
            "phase_basis_fallback_slots": int(fallback_slots[m]),
            "version": __version__,
        }
        tallies.append(sides[m].finish(metadata))
    return tallies


def simulate(config: SimConfig, workers: int = 1, progress=None) -> TallyTable:
    """Simulate one acquisition and count every singles/pair/triple channel."""
    [tally] = simulate_streams([config], workers=workers, progress=progress)
    return tally
