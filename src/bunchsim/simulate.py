"""End-to-end slot simulation: source -> splitter -> detectors -> tally.

The stream is processed in fixed canonical chunks (photon_source.CHUNK_SLOTS)
and every random draw comes from a substream keyed by (seed, purpose, chunk),
so the result is byte-identical for any worker count and any chunk schedule.
The click side (merge with the darks, dead time, the cut at the acquisition
end and counting) runs where each chunk is drawn, in one chunk job, in
process at one worker and in a process pool otherwise:

- each chunk has a span, the times that no other chunk's candidate reaches
  (_spans); the main process draws the darks once per model and hands each
  job those of its span, so the job holds every event of the span;
- the job finds the first and the last reset gap of the span's merged raw
  timeline, at least max(dead time, 2 * window + 1) ps wide. The event
  after one is registered whatever came before it, and no coincidence
  cluster spans one, so the job runs dead time, the cut and counting on
  the interior between them alone, and returns its tally, each detector's
  last registered time and the raw candidates outside it;
- the main process gathers the few events between two interiors, chunk
  by chunk in schedule order: one buffer per detector holds the raw events
  not yet counted, and the events below the last gap of more than
  2 * window below a watermark, where a coincidence cluster is closed, go
  through dead time, the cut and counting once, in a job of their own
  (_count) that carries each detector's last registered time across the
  edge. The events between two interiors make one such job. A chunk with
  no interior, where the jitter's reach or the dead time outlasts the span
  or no gap is wide enough, goes that way whole; a one-chunk run is
  counted wholly in its chunk job.

Every job runs where the chunk jobs run, so with a pool the main process
filters and counts nothing itself. The run holds about one chunk's clicks at
a time, not the acquisition's, only a chunk's edges and tallies travel
between processes, and no registered stream is kept: a consumer may take
each counted piece.

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
import functools
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

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

# the end of the last chunk's span, which releases every remaining event,
# and the start of the first chunk's
_END = int(np.iinfo(np.int64).max)
_START = -_END
_EMPTY = np.empty(0, dtype=np.int64)


def _spans(src: SourceConfig, detectors: DetectorConfig) -> list[tuple[int, int]]:
    """Per chunk, the span [start, end) of times that no other chunk's
    candidate click reaches.

    The slot clock is monotone, so a later chunk's clicks lie at or after the
    nominal time of the next chunk's first slot less the jitter's reach: end,
    the chunk's watermark. An earlier chunk's clicks lie at or before the
    nominal time of this chunk's slot before its first plus the reach, and
    below the earlier chunk's watermark, whose darks the click side takes
    with that chunk: start is past both. The first chunk's start is _START
    and the last chunk's end is _END, which releases and counts every
    remaining event. A jitter that reaches across chunks leaves a span
    empty.
    """
    reach = math.ceil(_JITTER_REACH_SIGMAS * detectors.jitter_sigma_ps) + 2
    firsts = np.array([chunk_start(i) for i in range(1, num_chunks(src))], dtype=np.int64)
    ends = [int(t) - reach for t in _slot_times(src, firsts)] + [_END]
    reached = [int(t) + reach + 1 for t in _slot_times(src, firsts - 1)]
    starts = [_START] + [max(t, end) for t, end in zip(reached, ends)]
    return list(zip(starts, ends))


class _Counted(NamedTuple):
    """What counting a run of events gives: its tally, None if nothing of it
    lies in the acquisition, each detector's last registered time, None if
    none, and its registered piece if the run has a consumer."""

    tally: TallyTable | None
    last: dict
    pieces: list


def _count(events: dict, last: dict, dead_time_ps: int, ccu: CcuConfig, keep_piece: bool) -> _Counted:
    """Dead time from each detector's last registered time, the cut at the
    acquisition end and counting of sorted raw events that no coincidence
    cluster joins to a later event. A job like the chunk's; the events are
    popped, so each detector's goes once filtered."""
    acq_ps = int(round(ccu.acquisition_s * 1e12))
    last, piece = dict(last), {}
    for det in Detector:
        registered = apply_dead_time(events.pop(det), dead_time_ps, last[det])
        if registered.size:
            last[det] = int(registered[-1])
        piece[det] = registered[: np.searchsorted(registered, acq_ps)]
    if not any(t.size for t in piece.values()):
        return _Counted(None, last, [])
    # through its module, the call site perfbench's tracer wraps for event replays
    return _Counted(coincidence_unit.accumulate(piece, ccu), last, [piece] if keep_piece else [])


def _done(result) -> concurrent.futures.Future:
    future = concurrent.futures.Future()
    future.set_result(result)
    return future


def _in_process(fn, *args) -> concurrent.futures.Future:
    """pool.submit's stand-in for a run without a pool."""
    return _done(fn(*args))


class _ClickSide:
    """Merge, dead time, cut and counting of one model's clicks, chunk by chunk.

    The main process takes each chunk job's result in schedule order
    (take). Each feed takes candidate clicks and a watermark, the time no
    later event lies below. One buffer per detector holds the raw events
    not yet counted: candidates, and the darks below the watermark, taken
    off the front of the rest. Each feed finds the last closed cluster edge
    of the buffered events below the watermark (coincidence_unit), submits
    dead time, the cut at the acquisition end and counting of the events
    below it as a job (_count), and keeps the rest raw. Dead time only removes events, so a gap of more than
    2 * window in the raw timeline is at least as wide in the registered
    one, and no coincidence spans it. Each event is filtered and counted
    exactly once and in time order, so the result equals the whole-stream
    pass: merge, sort, apply_dead_time, cut at the acquisition end and
    accumulate.

    submit runs a job: in process by default, or pool.submit, so that with
    a pool the main process counts nothing itself. Tallies are added and
    pieces handed to on_piece in time order as their jobs finish; a job
    waits for the one before it only for the last registered times it
    carries, which after a chunk's interior are the interior's.
    """

    def __init__(self, dead_time_ps: int, ccu: CcuConfig, dark: dict, on_piece=None, submit=_in_process):
        self.dead_time_ps = dead_time_ps
        self.ccu = ccu
        self.dark = dict(dark)  # sorted darks not yet buffered
        self.raw = dict.fromkeys(Detector, _EMPTY)  # sorted raw events, not yet counted
        self.on_piece = on_piece
        self.submit = submit
        # the counted runs whose tally and pieces are not yet taken, in time
        # order, and the last one, whose last registered times dead time carries
        self.pending = deque()
        self.latest = _done(_Counted(None, dict.fromkeys(Detector), []))
        self.counts = {
            "singles": dict.fromkeys(Detector, 0),
            "pairs": dict.fromkeys(PAIR_KEYS, 0),
            "triples": dict.fromkeys(TRIPLE_KEYS, 0),
        }

    def _merge(self, clicks: dict, watermark: int) -> None:
        """Buffer candidate clicks, popped once merged, and the darks below watermark."""
        for det in Detector:
            k = int(np.searchsorted(self.dark[det], watermark))
            self.raw[det] = np.concatenate([self.raw[det], clicks.pop(det), self.dark[det][:k]])
            self.raw[det].sort(kind="stable")  # a merge of sorted runs, or of nearly sorted clicks
            self.dark[det] = self.dark[det][k:]

    def feed(self, clicks: dict, watermark: int) -> None:
        """Take one chunk's candidate clicks, popping them from clicks once merged."""
        self._merge(clicks, watermark)
        # no view of a buffer outlives the edge search or its detector's
        # count, so each pre-feed buffer goes once its remainder replaces it
        edge = coincidence_unit.closed_edge(
            [t[: np.searchsorted(t, watermark)] for t in self.raw.values()], watermark, 2 * int(self.ccu.window_ps)
        )
        closed = {}
        for det in Detector:
            k = int(np.searchsorted(self.raw[det], edge))
            closed[det] = self.raw[det][:k]
            if k:
                self.raw[det] = self.raw[det][k:].copy()
        if any(t.size for t in closed.values()):
            last = self.latest.result().last
            self._then(self.submit(_count, closed, last, self.dead_time_ps, self.ccu, self.on_piece is not None))
        del closed
        self._take_done()

    def take(self, raw: dict, interior, watermark: int) -> None:
        """Take one chunk job's result for this model: the raw candidates
        outside its interior and the interior, None if it has none.

        The events below the interior are all here, and a reset gap closes
        them, so they are counted up to it; the interior's darks are
        dropped, and its count follows. The candidates above it wait raw,
        with the darks below the chunk's watermark, for the next chunk's,
        so that the events between two interiors make one job, which
        carries the first interior's last registered times.
        """
        if interior is None:
            self.feed(raw, watermark)
            return
        self.feed({det: t[: np.searchsorted(t, interior.lo)] for det, t in raw.items()}, interior.lo)
        for det in Detector:
            self.dark[det] = self.dark[det][np.searchsorted(self.dark[det], interior.hi) :]
        self._then(_done(interior.counted))
        self._merge({det: t[np.searchsorted(t, interior.hi) :] for det, t in raw.items()}, watermark)
        self._take_done()

    def _then(self, future: concurrent.futures.Future) -> None:
        self.pending.append(future)
        self.latest = future

    def _take_done(self, wait: bool = False) -> None:
        """Add the tallies and hand on the pieces of the finished runs, in turn."""
        while self.pending and (wait or self.pending[0].done()):
            counted = self.pending.popleft().result()
            if counted.tally is not None:
                for _, group, key in COUNTERS:
                    self.counts[group][key] += getattr(counted.tally, group)[key]
            for piece in counted.pieces:
                self.on_piece(piece)

    def finish(self, metadata: dict) -> TallyTable:
        """The tally once every chunk is fed, counting what is left at _END
        first: a run of no chunks still has its darks."""
        self.feed(dict.fromkeys(Detector, _EMPTY), _END)
        self._take_done(wait=True)
        return TallyTable(**self.counts, acquisition_s=self.ccu.acquisition_s, metadata=metadata)


class _Interior(NamedTuple):
    """The part of one model's chunk that its job counts: the events in [lo, hi)."""

    lo: int
    hi: int
    counted: _Counted


def _count_interior(clicks: dict, dark: dict, span, dead_time_ps: int, ccu: CcuConfig, keep_piece: bool):
    """(raw, interior) of one model's chunk: the click side of its interior.

    clicks are the chunk's candidates, popped once split; dark are the darks
    in span, the chunk's [start, end) (_spans), which holds every event that
    lies in it. In the merged raw timeline of the span, the first and the
    last reset gap, at least max(dead time, 2 * window + 1) ps wide, bound
    the interior: the event after a reset gap is registered whatever came
    before it, and no coincidence cluster spans the gap. So dead time with
    no carried time, the cut at the acquisition end and counting on the
    interior's events give the whole-stream pass's counts of them. The
    span's start less 1 and its end close the timeline, as no event lies
    between them and the span; the first chunk's interior starts at _START
    and the last one's ends at _END. raw holds the sorted candidates outside
    the interior, every candidate when no interior lies between two gaps.
    """
    start, end = span
    for t in clicks.values():
        t.sort(kind="stable")  # jittered clicks in slot order are nearly sorted
    spread = max(dead_time_ps, 2 * int(ccu.window_ps) + 1) - 1  # a reset gap is wider than spread
    inside = [t[np.searchsorted(t, start) : np.searchsorted(t, end)] for t in (*clicks.values(), *dark.values())]
    lo = start if start == _START else coincidence_unit.opened_edge(inside, start - 1, spread)
    hi = coincidence_unit.closed_edge(inside, end, spread)
    del inside  # its views would pin the candidates past their merge
    if lo is None or lo >= hi:
        return clicks, None
    interior, raw = {}, {}
    for det in Detector:
        t = clicks.pop(det)  # each detector's candidates go once merged
        a, b = np.searchsorted(t, (lo, hi))
        c, d = np.searchsorted(dark[det], (lo, hi))
        interior[det] = np.concatenate([t[a:b], dark[det][c:d]])
        interior[det].sort(kind="stable")  # a merge of two sorted runs
        raw[det] = np.concatenate([t[:a], t[b:]])
    del t
    return raw, _Interior(lo, hi, _count(interior, dict.fromkeys(Detector), dead_time_ps, ccu, keep_piece))


def _chunk_job(src: SourceConfig, detectors: DetectorConfig, models, ccu: CcuConfig, keep_piece: bool,
               span, darks, chunk_index: int) -> list[tuple[dict, _Interior | None, int]]:
    """(raw, interior, fallback slots) of every model for one chunk: its draw,
    and the click side of its interior with the darks of its span, one dict
    per model.

    The same function runs in process and in a pool, so only the few
    candidates near the chunk's edges and its interior's tally travel back.
    Top-level so process pools can pickle it.
    """
    drawn = _simulate_chunk(src, detectors, models, chunk_index)
    return [
        (*_count_interior(clicks, dark, span, detectors.dead_time_ps, ccu, keep_piece), fallback)
        for (clicks, fallback), dark in zip(drawn, darks)
    ]


def simulate_streams(configs, workers: int = 1, progress=None, on_piece=None) -> list[TallyTable]:
    """Run the full pipeline for configs that differ only in their model.

    Returns one TallyTable per config, in the order of configs. Each chunk
    job counts its chunk's interior, and a job of its own the events
    between two interiors, both in the pool if there is one, so no more
    than a chunk's clicks are held at a time. on_piece, if given, is called
    as on_piece(index, piece) with the index of a config in configs and
    each counted piece: per-detector registered events, dead-time filtered
    and cut to the acquisition [0, duration), in time order, so that one
    config's pieces in turn make its registered streams. progress, if
    given, is called as progress(done_chunks, total_chunks).
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
    spans = _spans(src, detectors)
    # darks are few; each model draws the same ones from the same substream,
    # one dark_events call per model, which perfbench's click accounting relies on
    darks = [dark_events(detectors, src.duration, substream(src.seed, STREAM_DARK)) for _ in configs]

    def job(i):
        start, end = spans[i]
        span_darks = [{det: t[np.searchsorted(t, start) : np.searchsorted(t, end)] for det, t in dark.items()}
                      for dark in darks]
        return (src, detectors, [c.model for c in configs], base.ccu, on_piece is not None, spans[i], span_darks, i)

    def count(submit, results):
        """The tallies of the chunk jobs' results, in schedule order, with
        every other count submitted as a job too."""
        sinks = [None if on_piece is None else functools.partial(on_piece, m) for m in range(len(configs))]
        sides = [_ClickSide(detectors.dead_time_ps, base.ccu, dark, sink, submit) for dark, sink in zip(darks, sinks)]
        fallback_slots = [0] * len(configs)
        for i, chunk in enumerate(results):
            for m, (raw, interior, fallback) in enumerate(chunk):
                fallback_slots[m] += fallback
                sides[m].take(raw, interior, spans[i][1])
            if progress is not None:
                progress(i + 1, chunks)
        return [
            side.finish({
                "config": config_metadata(config),
                "slots": slot_count(src),
                "phase_basis_fallback_slots": int(fallback),
                "version": __version__,
            })
            for side, config, fallback in zip(sides, configs, fallback_slots)
        ]

    if workers > 1 and chunks > 1:
        workers = min(workers, chunks)
        # looked up here, so that concurrent.futures loads its process pool,
        # and multiprocessing with it, only when a pool starts
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:

            def results():
                # at most 2 * workers chunks are submitted and not yet consumed,
                # so results that wait for a slower click side stay bounded too
                ahead = deque(pool.submit(_chunk_job, *job(i)) for i in range(min(2 * workers, chunks)))
                for i in range(chunks):
                    result = ahead.popleft().result()
                    if i + 2 * workers < chunks:
                        ahead.append(pool.submit(_chunk_job, *job(i + 2 * workers)))
                    yield result

            return count(pool.submit, results())
    return count(_in_process, (_chunk_job(*job(i)) for i in range(chunks)))


def simulate(config: SimConfig, workers: int = 1, progress=None) -> TallyTable:
    """Simulate one acquisition and count every singles/pair/triple channel."""
    [tally] = simulate_streams([config], workers=workers, progress=progress)
    return tally
