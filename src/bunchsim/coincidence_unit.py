"""Coincidence counting over per-detector timestamp streams.

Windows use half-width semantics: k clicks coincide when max - min <= width,
with width = window_ps for a pair and 2 * window_ps for a triple. Pairs and
triples share one matching rule, greedy earliest-first with single use per
channel, the same behaviour as a streaming hardware AND gate: a match takes
the head of every stream, and otherwise the earliest head is dropped. On
sorted streams this greedy count equals the brute-force maximum matching.

The merged timeline of all four streams is cut into clusters at gaps
> 2 * window_ps. No pair or triple bridges such a gap, and a greedy pointer
short of it is the earliest, so it passes the gap before any later match:
each walk splits into independent walks per cluster. Each cluster carries
two 4-bit detector masks, of the detectors that click once in it and of
those that click at all. A cluster with one click on each detector of a
counter holds one coincidence or none; only clusters with two clicks on one
of its detectors and none missing need the greedy walk.

The same gaps bound memory: accumulate cuts the streams into pieces of
about 4 * _MERGE_STEP events at cluster edges, counts each piece from its
own merged timeline and adds the counts. gap_edges finds the first and the
last gap wider than a spread between two bounds, for these pieces and for
simulate's chunk job, which counts between the two reset gaps of its span
or else cuts it at its last cluster edge.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .detector_bank import MAX_PS, Detector
from .photon_source import check_rules, integral

PAIR_KEYS = tuple(itertools.combinations(Detector, 2))
TRIPLE_KEYS = tuple(itertools.combinations(Detector, 3))

# Subset of counters the reference measurement tables report.
REFERENCE_PAIRS = (
    (Detector.A1, Detector.A2),
    (Detector.B1, Detector.B2),
    (Detector.A1, Detector.B1),
    (Detector.A1, Detector.B2),
)
SAME_SIDE_PAIRS = ((Detector.A1, Detector.A2), (Detector.B1, Detector.B2))
CROSS_SIDE_PAIRS = tuple(k for k in PAIR_KEYS if k not in SAME_SIDE_PAIRS)


@dataclass(frozen=True)
class CcuConfig:
    window_ps: int = 5_000
    acquisition_s: float = 1.0

    rules: ClassVar[dict] = {
        "window_ps": integral(lambda v: 0 < v < MAX_PS or "must be in (0, 2^53)"),
        "acquisition_s": lambda v: 0 < v < math.inf or "must be finite and > 0",
    }

    def __post_init__(self):
        check_rules(self, self.rules)


def pair_name(key) -> str:
    return "".join(det.label for det in key)


def counter_name(kind: str, key) -> str:
    if kind == "single":
        return f"single_{key.label}"
    return f"{kind}_{pair_name(key)}"


# (name, group, key) of the 14 counters in canonical order; group names the
# dict that holds the counter on a TallyTable or RatePrediction
COUNTERS = (
    *((counter_name("single", det), "singles", det) for det in Detector),
    *((counter_name("pair", key), "pairs", key) for key in PAIR_KEYS),
    *((counter_name("triple", key), "triples", key) for key in TRIPLE_KEYS),
)


def counter_values(table):
    """Iterate (name, value) of every counter of table in canonical order."""
    return ((name, getattr(table, group)[key]) for name, group, key in COUNTERS)


@dataclass
class TallyTable:
    singles: dict
    pairs: dict
    triples: dict
    acquisition_s: float
    metadata: dict = field(default_factory=dict)

    def rate(self, count: int) -> float:
        return count / self.acquisition_s

    def counters(self):
        """Iterate (name, count, rate) in canonical order."""
        return ((name, count, self.rate(count)) for name, count in counter_values(self))


# Merge keys 4 * t + detector are int64, so timestamps must stay below 2**61 ps.
_MAX_KEY_TIME_PS = 2**61

# Events per stream between the marks that accumulate's cuts are tried at (see
# _pieces): a piece holds about 4 * _MERGE_STEP events, whose temporaries are
# the counting's memory. Smaller pieces add the fixed cost of the ten
# counters per piece. With glibc, a piece's arrays at 2^13 are reused from
# the heap, where at 2^14 they were mapped and faulted in anew: 43 against
# 16 810 page faults to count a 1.87e6-event bright dump.
_MERGE_STEP = 1 << 13


class _Clusters(NamedTuple):
    keys: np.ndarray  # sorted merge keys 4 * t + detector
    cluster: np.ndarray  # cluster index of each key
    one: np.ndarray  # per cluster, bit d set where detector d clicks exactly once
    some: np.ndarray  # per cluster, bit d set where detector d clicks
    only: np.ndarray  # (4, clusters): the time of the click where there is exactly one


def _clusters(streams: dict, spread: int) -> _Clusters:
    """The events of streams that have a neighbour, split at time gaps > spread.

    The four streams are merged into one sorted timeline of keys, and the
    events within `spread` ps of the next or the previous one are kept; the
    dropped ones are alone in their cluster, and the kept ones are split at
    time gaps > spread. Such a gap has no kept event on both sides, so the
    streams cut at such gaps keep the same keys.
    """
    keys = np.concatenate([streams[det] * 4 + det for det in Detector])
    keys.sort()
    times = keys >> 2
    close = times[1:] - times[:-1] <= spread
    keep = np.zeros(keys.size, dtype=bool)
    keep[:-1] = close
    keep[1:] |= close
    keys = keys[keep]
    times = keys >> 2
    start = np.ones(keys.size, dtype=bool)
    start[1:] = times[1:] - times[:-1] > spread
    cluster = np.cumsum(start) - 1
    n = int(cluster[-1]) + 1 if keys.size else 0
    cell = (keys & 3) * n + cluster
    only = np.zeros(4 * n, dtype=np.int64)
    only[cell] = times
    clicks = np.bincount(cell, minlength=4 * n).reshape(4, n)
    bit = (1 << np.arange(4, dtype=np.uint8))[:, None]  # detector d's bit in a mask
    one, some = (np.bitwise_or.reduce(bit * rows) for rows in (clicks == 1, clicks > 0))
    return _Clusters(keys, cluster, one, some, only.reshape(4, n))


def gap_edges(streams, lo: int, hi: int, spread: int) -> tuple[int, int] | None:
    """(first, last): the times just after the first and the last gap > spread
    of the merged timeline of lo, the sorted per-detector times of streams
    in [lo, hi], and hi; None if it has no such gap.

    A bound more than spread from every event is a gap itself: a far lower
    bound makes first the first event, and last too where no other gap
    lies. The bounds stay Python ints, as a far one's distance wraps in
    int64. Each edge is searched inward from its bound, so it costs the
    events between that bound and the nearest gap.
    """
    lo, hi, spread = int(lo), int(hi), int(spread)
    streams = [t for t in streams if len(t)]
    if not streams:
        return (hi, hi) if hi - lo > spread else None
    head, tail = min(int(t[0]) for t in streams), max(int(t[-1]) for t in streams)
    first = head if head - lo > spread else _inner_gap(streams, head, tail, spread, forward=True)
    if first is None:  # no gap below the last event
        return (hi, hi) if hi - tail > spread else None
    last = hi if hi - tail > spread else _inner_gap(streams, head, tail, spread, forward=False)
    return first, head if last is None else last  # with no gap between events, lo's is the last


def _inner_gap(streams, head: int, tail: int, spread: int, forward: bool) -> int | None:
    """The event just after the first gap > spread between the events of
    streams, the last if not forward, or None: merged only within span of
    head (tail), span doubling until that holds a gap or every event."""
    span = 2 * spread + 2
    while True:
        whole = tail - head <= span
        if whole:
            part = streams
        elif forward:
            part = [t[: np.searchsorted(t, head + span, "right")] for t in streams]
        else:
            part = [t[np.searchsorted(t, tail - span) :] for t in streams]
        times = np.concatenate(part)
        times.sort(kind="stable")  # a merge of sorted runs
        gaps = np.flatnonzero(times[1:] - times[:-1] > spread)
        if gaps.size:
            return int(times[gaps[0 if forward else -1] + 1])
        if whole:
            return None
        span *= 2


def _greedy(streams, width: int) -> int:
    """Greedy earliest-first count of the coincidences (max - min <= width) of k sorted lists.

    A match takes the head of every list. Otherwise the earliest head is
    dropped, the first list's on a tie. The walk ends when a list runs out.
    """
    rest = [iter(s) for s in streams]
    count = 0
    try:
        heads = [next(it) for it in rest]
        while True:
            lo = min(heads)
            if max(heads) - lo <= width:
                count += 1
                heads = [next(it) for it in rest]
            else:
                i = heads.index(lo)
                heads[i] = next(rest[i])
    except StopIteration:
        return count


def _cluster_count(c: _Clusters, key, width: int) -> int:
    """Greedy count of the coincidences (max - min <= width) of the detectors in key.

    A cluster with one click on each detector of key holds one coincidence
    or none. Clusters with two clicks on a detector of key and none missing
    share one greedy walk, which their gaps (> spread >= width) split exactly.
    """
    rows = list(key)
    mask = sum(1 << d for d in key)
    single = (c.one & mask) == mask
    count = np.count_nonzero(single & (np.ptp(c.only[rows], axis=0) <= width))
    hard = ((c.some & mask) == mask) & ~single
    if hard.any():
        keys = c.keys[hard[c.cluster]]
        count += _greedy([(keys[keys & 3 == d] >> 2).tolist() for d in rows], width)
    return int(count)


def count_pairs(clusters: _Clusters, config: CcuConfig) -> dict:
    """All six pair counters over the clusters of one piece of the streams."""
    return {key: _cluster_count(clusters, key, int(config.window_ps)) for key in PAIR_KEYS}


def count_triples(clusters: _Clusters, config: CcuConfig) -> dict:
    """All four triple counters over the clusters of one piece of the streams."""
    return {key: _cluster_count(clusters, key, 2 * int(config.window_ps)) for key in TRIPLE_KEYS}


def _pieces(streams: dict, config: CcuConfig):
    """The sorted streams cut at cluster edges, piece by piece in time order.

    Every _MERGE_STEP-th event of each stream is a mark, and every fourth
    mark in time order a candidate c: about 4 * _MERGE_STEP events apart,
    whether the clicks fall on one detector or spread over four. The cut
    near c is the last gap edge (gap_edges) of the events below c, bounded
    by c, an event, and -1 - spread, a gap below every event at or above 0.
    The events below the previous candidate hold no gap after the last cut,
    which that candidate's search would have found, so only the events from
    it on are searched. Where they hold no gap either, the edge is their
    first event and the piece grows to the next candidate.
    """
    times = [streams[det] for det in Detector]
    spread = 2 * int(config.window_ps)
    marks = np.sort(np.concatenate([t[_MERGE_STEP::_MERGE_STEP] for t in times]))
    start = lo = [0] * len(times)
    for c in marks[len(times) - 1 :: len(times)].tolist():
        hi = [int(np.searchsorted(t, c)) for t in times]
        _, edge = gap_edges([t[a:b] for t, a, b in zip(times, lo, hi)], -1 - spread, c, spread)
        cut = [int(np.searchsorted(t, edge)) for t in times]
        if cut != lo:  # a gap lies past the first event searched
            yield {det: t[a:b] for det, t, a, b in zip(Detector, times, start, cut)}
            start = cut
        lo = hi
    yield {det: t[a:] for det, t, a in zip(Detector, times, start)}


def _time_ordered(t: np.ndarray) -> bool:
    """Whether t never decreases, compared _MERGE_STEP steps at a time: one
    whole-stream compare would be the only stream-length temporary of accumulate."""
    blocks = (t[lo : lo + _MERGE_STEP + 1] for lo in range(0, t.size - 1, _MERGE_STEP))
    return not any(np.any(b[1:] < b[:-1]) for b in blocks)


def accumulate(streams: dict, config: CcuConfig) -> TallyTable:
    """Count all singles, pairs and triples for one acquisition [0, acquisition_s).

    The one counting entry point, for simulated runs and event replays
    alike. The streams are cut into pieces at time gaps > 2 * window (see
    _pieces), and the ten coincidence counters of each piece read one set of
    clusters. No coincidence bridges such a gap and the gaps split every
    greedy walk exactly (module docstring), so the counts, summed over the
    pieces, are those of the whole streams; the temporaries are a piece's.
    """
    acq_ps = int(round(config.acquisition_s * 1e12))
    if acq_ps >= _MAX_KEY_TIME_PS:
        raise ValueError(f"acquisition of {acq_ps} ps exceeds the counter's limit of {_MAX_KEY_TIME_PS - 1} ps")
    clean = {}
    for det in Detector:
        t = np.asarray(streams[det], dtype=np.int64)
        if not _time_ordered(t):
            raise ValueError(f"accumulate[{det.label}]: stream is not time-ordered")
        if t.size and (t[0] < 0 or t[-1] >= acq_ps):
            raise ValueError(f"accumulate[{det.label}]: timestamps outside [0, acquisition)")
        clean[det] = t
    pairs, triples = dict.fromkeys(PAIR_KEYS, 0), dict.fromkeys(TRIPLE_KEYS, 0)
    for piece in _pieces(clean, config):
        clusters = _clusters(piece, 2 * int(config.window_ps))
        if clusters.keys.size:  # a piece whose events all lie alone counts 0
            for total, found in ((pairs, count_pairs(clusters, config)), (triples, count_triples(clusters, config))):
                for key, n in found.items():
                    total[key] += n
        del clusters  # a piece's arrays go before the next piece is cut
    return TallyTable({det: int(clean[det].size) for det in Detector}, pairs, triples, config.acquisition_s)


# --- serialisation ----------------------------------------------------------

CSV_HEADER = "counter_name,count,rate_per_s"


def tally_to_csv(tally: TallyTable) -> str:
    lines = [CSV_HEADER]
    for name, count, rate in tally.counters():
        lines.append(f"{name},{count},{rate!r}")
    return "\n".join(lines) + "\n"


def tally_to_json(tally: TallyTable) -> str:
    doc = {
        "acquisition_s": tally.acquisition_s,
        "singles": {det.label: tally.singles[det] for det in Detector},
        "pairs": {pair_name(k): tally.pairs[k] for k in PAIR_KEYS},
        "triples": {pair_name(k): tally.triples[k] for k in TRIPLE_KEYS},
        "reference_reported_pairs": [pair_name(k) for k in REFERENCE_PAIRS],
        "reference_reported_triples": [pair_name(k) for k in TRIPLE_KEYS],
        "metadata": tally.metadata,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def tally_from_csv(text: str) -> TallyTable:
    """Rebuild a TallyTable from its CSV form (counts are authoritative).

    The acquisition is count / rate_per_s of the row with the largest count,
    or the float within 2 ulp of it that reproduces every printed rate, so
    that the table prints back to the same text. Every row's rate must agree
    with it to a relative 1e-12.
    """
    lookup = {name: (group, key) for name, group, key in COUNTERS}
    groups = {"singles": {}, "pairs": {}, "triples": {}}
    rows = {}
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("not a tally CSV: bad header")
    for ln in lines[1:]:
        if ln.count(",") != 2:
            raise ValueError(f"tally CSV row must have 3 fields, name, count and rate_per_s: {ln!r}")
        name, count, rate = ln.split(",")
        if name not in lookup:
            raise ValueError(f"tally CSV names an unknown counter: {name!r}")
        if name in rows:
            raise ValueError(f"tally CSV repeats the counter {name!r}")
        value = int(count)
        if not 0 <= value < 2**63:
            raise ValueError(f"tally CSV count of {name} must be in [0, 2^63), got {count}")
        rows[name] = value, float(rate)
        group, key = lookup[name]
        groups[group][key] = value
    missing = [name for name in lookup if name not in rows]
    if missing:
        raise ValueError(f"tally CSV is missing counters: {missing}")
    top, top_rate = max(rows.values(), key=lambda row: row[0])
    if top == 0:
        raise ValueError("tally CSV has no counts, so its acquisition is unknown")
    approx = top / top_rate if 0 < top_rate < math.inf else math.nan
    if not approx < math.inf:
        raise ValueError(f"tally CSV rate_per_s {top_rate!r} of {top} counts gives no finite, positive acquisition")
    up, down = math.nextafter(approx, math.inf), math.nextafter(approx, 0)
    near = (approx, up, down, math.nextafter(up, math.inf), math.nextafter(down, 0))
    acquisition_s = next((t for t in near if t > 0 and all(count / t == rate for count, rate in rows.values())), approx)
    for name, (count, rate) in rows.items():
        if not abs(rate - count / acquisition_s) <= 1e-12 * (count / acquisition_s):
            raise ValueError(f"tally CSV rows disagree on the acquisition: {name} has rate_per_s {rate!r}")
    return TallyTable(**groups, acquisition_s=acquisition_s)
