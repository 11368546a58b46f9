"""End-to-end slot simulation: source -> splitter -> detectors -> tally.

The stream is processed in fixed canonical chunks (photon_source.CHUNK_SLOTS)
and every random draw comes from a substream keyed by (seed, purpose, chunk),
so the result is byte-identical for any worker count and any chunk schedule.
The click side (dead time, the cut at the acquisition end and counting) runs
where each chunk is drawn, in one chunk job, in process at one worker and in
a process pool otherwise:

- the darks are drawn once per model, where the chunk jobs run and before
  the first (_draw_darks), and the main process hands each chunk job those
  from the previous chunk's watermark to its own (_spans), so the darks
  tile the jobs. The job merges them into its candidates once, and every
  later stage sees one kind of sorted raw event;
- the job counts the interior of its span, the times no other chunk's
  candidate reaches, between the first and the last reset gap of its
  events there, at least max(dead time, 2 * window + 1) ps wide: the event
  after one is registered whatever came before it, and no coincidence
  cluster spans one. With no interior, where the jitter's reach or the
  dead time outlasts the span or no gap is wide enough, it cuts at the
  span's last gap of more than 2 * window, where a coincidence cluster is
  closed, if there is one. It returns the interior's count (_Counted) and
  the raw events below (head) and above (tail) the interior or the cut;
- the main process stitches the results in schedule order, with one
  buffer per detector of raw events not yet counted. Each head goes with
  the buffer through dead time, the cut and counting once, in a job of its
  own (_count) that carries each detector's last registered time; the
  interior's count follows, and the tail is then the buffer. The main
  process waits for each job's result and adds it at once, handing its
  piece on. A run has at least one chunk, empty if it has no slot, and a
  one-chunk run is counted wholly in its chunk job.

Every job runs where the chunk jobs run, so with a pool the main process
draws, filters and counts nothing itself, and never loads numpy.random's
generator code (photon_source.substream). The run holds about one chunk's
clicks at a time, not the acquisition's, only a chunk's edges and tallies
travel between processes, and no registered stream is kept: a consumer may
take each counted piece.

Per chunk the engine holds the occupied slots as uint16 segment offsets
(photon_source.SegmentedSlots) and int16 photon numbers, the latter
dropped once the last model is routed, and per model its two int16 port
rows. It splits and detects port by port: a split writes its second row
over its port row, and each detector's int16 count row is freed once its
clicks are drawn. No full-length slot-time array is built: the slot clock
rint(slot / slot_rate * 1e12) is evaluated only for the slots that fire,
on int64 slot indices widened from their offsets. The click side lets go
of each detector's pre-feed buffer once it is merged.

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
    """Candidate clicks and fallback slots of every model for one chunk, in a list:
    a generator would hold the chunk's slot offsets through _chunk_job's counts."""
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
    the darks below the earlier chunk's watermark go to that chunk's job:
    start is past both. The first chunk's start is _START and the last
    chunk's end is _END, which releases and counts every remaining event. A
    jitter that reaches across chunks leaves a span empty.
    """
    reach = math.ceil(_JITTER_REACH_SIGMAS * detectors.jitter_sigma_ps) + 2
    firsts = np.array([chunk_start(i) for i in range(1, num_chunks(src))], dtype=np.int64)
    ends = [int(t) - reach for t in _slot_times(src, firsts)] + [_END]
    reached = [int(t) + reach + 1 for t in _slot_times(src, firsts - 1)]
    starts = [_START] + [max(t, end) for t, end in zip(reached, ends)]
    return list(zip(starts, ends))


class _Counted(NamedTuple):
    """What counting a run of events gives: its tally, zeros if nothing of
    it lies in the acquisition, each detector's last registered time, None
    if none, and its registered piece if the run has a consumer, else None."""

    tally: TallyTable
    last: dict
    piece: dict | None


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
    # through its module, the call site perfbench's tracer wraps for event replays
    return _Counted(coincidence_unit.accumulate(piece, ccu), last, piece if keep_piece else None)


def _in_process(fn, *args):
    """The job runner of a run without a pool: fn(*args), called here."""
    return fn(*args)


def _merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted events of a and b: a merge of two sorted runs, a's first at equal times."""
    t = np.concatenate([a, b])
    t.sort(kind="stable")
    return t


class _ClickSide:
    """Dead time, cut and counting of one model's events, chunk by chunk.

    The main process takes each chunk job's result in schedule order
    (take): sorted raw events, candidates merged with their darks, cut by
    the chunk job at a gap of more than 2 * window, where no coincidence
    cluster spans. Dead time only removes events, so such a gap in the raw
    timeline is at least as wide in the registered one. One buffer per
    detector holds the raw events not yet counted, those above the last
    cut. Each feed runs dead time, the cut at the acquisition end and
    counting of the buffered events and the fed ones as one job (_count).
    Each event is filtered and counted exactly once and in time order, so
    the result equals the whole-stream pass: merge, sort, apply_dead_time,
    cut at the acquisition end and accumulate.

    run(fn, *args) runs a job and returns its result: in process by
    default, or in a pool, so that with a pool the main process counts
    nothing itself. A chunk's interior comes counted. Each count is added
    as soon as it is run or taken (_add), in time order: its tally is
    summed, its piece handed to on_piece, and its last registered times
    carried into the next job.
    """

    def __init__(self, dead_time_ps: int, ccu: CcuConfig, on_piece=None, run=_in_process):
        self.dead_time_ps = dead_time_ps
        self.ccu = ccu
        self.raw = dict.fromkeys(Detector, _EMPTY)  # sorted raw events, not yet counted
        self.on_piece = on_piece
        self.run = run
        self.last = dict.fromkeys(Detector)  # each detector's last registered time in the runs added
        self.counts = {
            "singles": dict.fromkeys(Detector, 0),
            "pairs": dict.fromkeys(PAIR_KEYS, 0),
            "triples": dict.fromkeys(TRIPLE_KEYS, 0),
        }

    def feed(self, events: dict) -> None:
        """Count the buffered events and sorted raw events that no
        coincidence cluster joins to a later event, popping them once merged."""
        run, self.raw = self.raw, dict.fromkeys(Detector, _EMPTY)
        for det in Detector:
            run[det] = _merged(run[det], events.pop(det))  # each pre-feed buffer goes once merged
        if any(t.size for t in run.values()):
            counted = self.run(_count, run, self.last, self.dead_time_ps, self.ccu, self.on_piece is not None)
            del run  # with a pool it stays unpopped, pinning the merged buffers through on_piece
            self._add(counted)

    def take(self, head: dict | None, counted: _Counted | None, tail: dict) -> None:
        """Take one chunk job's result for this model (_count_interior): the
        raw events below its cut, None if it has none, its interior's
        count, None if it has none, and the raw events above.

        Every buffered event lies below the chunk's span (_spans) and the
        head below the cut, so the cut closes them all: the head is fed,
        and the interior's count is added after it, its piece handed to
        on_piece here. The tail then joins the buffer, so that the events
        between two cuts make one job, which carries the last registered
        times before them.
        """
        if head is not None:
            self.feed(head)
        if counted is not None:
            self._add(counted)
        for det in Detector:
            self.raw[det] = _merged(self.raw[det], tail.pop(det))

    def _add(self, counted: _Counted) -> None:
        """Add one counted run's tally, hand on its piece and carry its last registered times."""
        self.last = counted.last
        for _, group, key in COUNTERS:
            self.counts[group][key] += getattr(counted.tally, group)[key]
        if counted.piece is not None:
            self.on_piece(counted.piece)

    def finish(self, metadata: dict) -> TallyTable:
        """The tally once every chunk is taken, counting what is still buffered first."""
        self.feed(dict.fromkeys(Detector, _EMPTY))
        return TallyTable(**self.counts, acquisition_s=self.ccu.acquisition_s, metadata=metadata)


def _count_interior(events: dict, span, dead_time_ps: int, ccu: CcuConfig, keep_piece: bool):
    """(head, counted, tail) of one model's chunk: its interior's _Counted, None if none.

    events are the chunk's sorted raw events, its candidates merged with its
    darks, popped once split; they hold every event that lies in span, the
    chunk's [start, end) (_spans). In the timeline of the span's events, the
    first and the last reset gap, at least max(dead time, 2 * window + 1) ps
    wide, bound the interior [lo, hi): the event after a reset gap is
    registered whatever came before it, and no coincidence cluster spans the
    gap. So dead time with no carried time, the cut at the acquisition end
    and counting on the interior's events give the whole-stream pass's
    counts of them. The span's start less 1 and its end bound the timeline
    (coincidence_unit.gap_edges), as no event lies between them and the
    span; the first chunk's, -2^63, is a gap below every event, so its
    interior starts at its first event. head holds the events below lo and
    tail those at or above hi. With no interior, lo = hi is the last gap of
    more than 2 * window there, a cluster edge of the merged stream; with
    none, head is None and tail holds every event.
    """
    start, end = span
    spread = max(dead_time_ps, 2 * int(ccu.window_ps) + 1) - 1  # a reset gap is wider than spread
    inside = [t[np.searchsorted(t, start) : np.searchsorted(t, end)] for t in events.values()]
    edges = coincidence_unit.gap_edges(inside, start - 1, end, spread)
    interior = edges is not None and edges[0] < edges[1]
    if not interior:
        edges = coincidence_unit.gap_edges(inside, start - 1, end, 2 * int(ccu.window_ps))
        edges = None if edges is None else (edges[1], edges[1])
    del inside  # its views would pin each row past its dead time
    if edges is None:
        return None, None, events
    head, middle, tail = {}, {}, {}
    for det in Detector:
        t = events.pop(det)  # each detector's row goes once filtered
        a, b = np.searchsorted(t, edges)
        head[det], middle[det], tail[det] = t[:a].copy(), t[a:b], t[b:].copy()
    del t
    return head, _count(middle, dict.fromkeys(Detector), dead_time_ps, ccu, keep_piece) if interior else None, tail


def _chunk_job(src: SourceConfig, detectors: DetectorConfig, models, ccu: CcuConfig, keep_piece: bool,
               span, darks, chunk_index: int) -> list[tuple[dict | None, _Counted | None, dict, int]]:
    """(head, counted, tail, fallback slots) of every model for one chunk.

    Each model's draw is merged with its darks, one dict per model of those
    from the previous chunk's watermark to this one's in one sort, and its
    cut and the click side of its interior run here (_count_interior). The same
    function runs in process and in a pool, so only the few events near the
    chunk's edges and its interior's count travel back. Top-level for pickling.
    """
    results = []
    for (events, fallback), dark in zip(_simulate_chunk(src, detectors, models, chunk_index), darks):
        for det in Detector:
            events[det] = _merged(events[det], dark[det])  # nearly sorted jittered clicks, then sorted darks
        results.append((*_count_interior(events, span, detectors.dead_time_ps, ccu, keep_piece), fallback))
    return results


def _draw_darks(detectors: DetectorConfig, src: SourceConfig, models: int) -> list[dict]:
    """Each model's darks, the same ones from the same substream: one
    dark_events call per model, which perfbench's click accounting relies
    on. Darks are few, so one task draws them all. Top-level for pickling."""
    return [dark_events(detectors, src.duration, substream(src.seed, STREAM_DARK)) for _ in range(models)]


def simulate_streams(configs, workers: int = 1, progress=None, on_piece=None) -> list[TallyTable]:
    """Run the full pipeline for configs that differ only in their model.

    Returns one TallyTable per config, in the order of configs. Each chunk
    job cuts its chunk and counts its interior, and a job of its own the
    events between two cuts, both in the pool if there is one, so no more
    than a chunk's clicks are held at a time. The pool, if there is one,
    draws the darks too, in one task before the first chunk job. on_piece,
    if given, is called as on_piece(index, piece) with the index of a
    config in configs and each counted piece: per-detector registered
    events, dead-time filtered and cut to the acquisition [0, duration), in
    time order, so that one config's pieces in turn make its registered
    streams. progress, if given, is called as progress(done_chunks,
    total_chunks).
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
    watermarks = [_START] + [end for _, end in spans]
    # job and count read darks, each model's, drawn where the chunk jobs run
    # and before the first (_draw_darks)

    def job(i):
        lo, hi = watermarks[i], watermarks[i + 1]
        tiles = [{det: t[np.searchsorted(t, lo) : np.searchsorted(t, hi)] for det, t in dark.items()} for dark in darks]
        return (src, detectors, [c.model for c in configs], base.ccu, on_piece is not None, spans[i], tiles, i)

    def count(run, results):
        """The tallies of the chunk jobs' results, in schedule order, with
        every other count run as a job too."""
        sinks = [None if on_piece is None else functools.partial(on_piece, m) for m in range(len(configs))]
        sides = [_ClickSide(detectors.dead_time_ps, base.ccu, sink, run) for sink in sinks]
        fallback_slots = [0] * len(configs)
        for i, chunk in enumerate(results):
            for m, (head, counted, tail, fallback) in enumerate(chunk):
                fallback_slots[m] += fallback
                sides[m].take(head, counted, tail)
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

            def run(fn, *args):
                """One job in the pool, its result awaited."""
                return pool.submit(fn, *args).result()

            # drawn in the pool too, so that the main process draws nothing
            darks = run(_draw_darks, detectors, src, len(configs))

            def results():
                # at most 2 * workers chunks are submitted and not yet consumed,
                # so results that wait for a slower click side stay bounded too
                ahead = deque(pool.submit(_chunk_job, *job(i)) for i in range(min(2 * workers, chunks)))
                for i in range(chunks):
                    result = ahead.popleft().result()
                    if i + 2 * workers < chunks:
                        ahead.append(pool.submit(_chunk_job, *job(i + 2 * workers)))
                    yield result

            return count(run, results())
    darks = _draw_darks(detectors, src, len(configs))
    return count(_in_process, (_chunk_job(*job(i)) for i in range(chunks)))


def simulate(config: SimConfig, workers: int = 1, progress=None) -> TallyTable:
    """Simulate one acquisition and count every singles/pair/triple channel."""
    [tally] = simulate_streams([config], workers=workers, progress=progress)
    return tally
