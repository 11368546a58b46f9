"""Coincidence counting over per-detector timestamp streams.

Windows use half-width semantics: two clicks coincide when |t1 - t2| <=
window_ps, a triple coincides when max - min <= 2 * window_ps. Matching is
greedy earliest-first with single use per channel, the same behaviour as a
streaming hardware AND gate; on sorted streams this greedy count equals the
brute-force maximum matching.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .detector_bank import Detector, LABEL_TO_DETECTOR

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

    def __post_init__(self):
        if self.window_ps <= 0:
            raise ValueError("window_ps must be > 0")
        if self.acquisition_s <= 0:
            raise ValueError("acquisition_s must be > 0")


def pair_name(key) -> str:
    return "".join(det.label for det in key)


def counter_name(kind: str, key) -> str:
    if kind == "single":
        return f"single_{key.label}"
    return f"{kind}_{pair_name(key)}"


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
        for det in Detector:
            c = self.singles[det]
            yield counter_name("single", det), c, self.rate(c)
        for key in PAIR_KEYS:
            c = self.pairs[key]
            yield counter_name("pair", key), c, self.rate(c)
        for key in TRIPLE_KEYS:
            c = self.triples[key]
            yield counter_name("triple", key), c, self.rate(c)


def _require_sorted(times: np.ndarray, who: str) -> np.ndarray:
    t = np.asarray(times, dtype=np.int64)
    if t.size > 1 and np.any(np.diff(t) < 0):
        raise ValueError(f"{who}: stream is not time-ordered")
    return t


def count_singles(times) -> int:
    """Event count of one detector stream; rejects unordered input."""
    return int(_require_sorted(times, "count_singles").size)


def _partner_gap(t: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Distance from each event of t to its nearest event of `other`.

    One searchsorted finds each event's right neighbour in `other`; the
    nearer of it and the left one gives the gap. Clamped indices at the
    ends point at the one neighbour there is, and abs() folds it back.
    """
    if other.size == 0:
        return np.full(t.size, np.iinfo(np.int64).max)
    i = np.searchsorted(other, t)
    right = other[np.minimum(i, other.size - 1)] - t
    left = t - other[np.maximum(i - 1, 0)]
    return np.minimum(np.abs(right), np.abs(left))


def _gap_table(streams: dict) -> dict:
    """Nearest-partner gaps for every ordered pair of distinct streams."""
    return {(x, y): _partner_gap(streams[x], streams[y]) for x in streams for y in streams if x != y}


def _partnered(streams: dict, gaps: dict, key, width: int) -> list:
    """Events of each stream in key with a partner within width in every other one.

    Events dropped here can never be matched, and skipping them does not
    change greedy pointer dynamics, so counting on the filtered streams is
    exact.
    """
    out = []
    for x in key:
        near = np.logical_and.reduce([gaps[x, y] <= width for y in key if y != x])
        out.append(streams[x][near].tolist())
    return out


# Merge keys 4 * t + detector are int64, so timestamps must stay below 2**61 ps.
_MAX_KEY_TIME_PS = 2**61

# Events per stream between merge block edges: a block holds fewer than
# 4 * _MERGE_STEP keys, which bounds the pre-filter's memory on long runs.
_MERGE_STEP = 1 << 14


def _with_neighbour(streams: dict, spread: int) -> dict:
    """Events that have an event of any detector within `spread` ps.

    The four streams are merged into one sorted timeline of keys
    4 * t + detector, block by block in time. An event's nearest other
    event lies next to it on that timeline, and |dt| <= spread implies a key
    gap <= 4 * spread + 3, so keeping both ends of every such gap keeps a
    superset of the events with a neighbour. Every event of a pair
    (|dt| <= window) or a triple (spread <= 2 * window) has one, and so does
    each of its partners; the per-channel partner filters of the counters
    therefore select the same events from these streams as from the full
    ones, and the counts are identical.
    """
    times = [streams[det] for det in Detector]
    edges = np.unique(np.concatenate([t[::_MERGE_STEP] for t in times]))
    bounds = [np.append(np.searchsorted(t, edges), t.size) for t in times]
    limit = 4 * spread + 3
    kept, prev, prev_keep = [], None, None
    for j in range(edges.size):
        keys = np.concatenate([t[b[j] : b[j + 1]] * 4 + det for det, t, b in zip(Detector, times, bounds)])
        keys.sort()
        close = keys[1:] - keys[:-1] <= limit
        keep = np.zeros(keys.size, dtype=bool)
        keep[:-1] = close
        keep[1:] |= close
        if prev is not None:
            if keys[0] - prev[-1] <= limit:
                prev_keep[-1] = keep[0] = True
            kept.append(prev[prev_keep])
        prev, prev_keep = keys, keep
    if prev is not None:
        kept.append(prev[prev_keep])
    merged = np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)
    det_of = merged & 3
    return {det: merged[det_of == det] >> 2 for det in Detector}


def _greedy_pairs(x, y, window: int) -> int:
    i = j = c = 0
    nx, ny = len(x), len(y)
    while i < nx and j < ny:
        d = x[i] - y[j]
        if d < -window:
            i += 1
        elif d > window:
            j += 1
        else:
            c += 1
            i += 1
            j += 1
    return c


def _greedy_triples(x, y, z, spread: int) -> int:
    i = j = k = c = 0
    nx, ny, nz = len(x), len(y), len(z)
    while i < nx and j < ny and k < nz:
        a, b, d = x[i], y[j], z[k]
        lo = min(a, b, d)
        if max(a, b, d) - lo <= spread:
            c += 1
            i += 1
            j += 1
            k += 1
        elif a == lo:
            i += 1
        elif b == lo:
            j += 1
        else:
            k += 1
    return c


def pair_coincidences(times_x, times_y, window_ps: int) -> int:
    """Greedy single-use pair count between two sorted streams."""
    streams = {i: _require_sorted(t, "pair_coincidences") for i, t in enumerate((times_x, times_y))}
    window = int(window_ps)
    return _greedy_pairs(*_partnered(streams, _gap_table(streams), (0, 1), window), window)


def triple_coincidences(times_x, times_y, times_z, window_ps: int) -> int:
    """Greedy single-use triple count; spread limit is 2 * window_ps."""
    streams = {i: _require_sorted(t, "triple_coincidences") for i, t in enumerate((times_x, times_y, times_z))}
    spread = 2 * int(window_ps)
    return _greedy_triples(*_partnered(streams, _gap_table(streams), (0, 1, 2), spread), spread)


def count_pairs(streams: dict, config: CcuConfig, gaps: dict) -> dict:
    """All six pair counters; gaps is the _gap_table of streams."""
    window = int(config.window_ps)
    return {key: _greedy_pairs(*_partnered(streams, gaps, key, window), window) for key in PAIR_KEYS}


def count_triples(streams: dict, config: CcuConfig, gaps: dict) -> dict:
    """All four triple counters; gaps is the _gap_table of streams."""
    spread = 2 * int(config.window_ps)
    return {key: _greedy_triples(*_partnered(streams, gaps, key, spread), spread) for key in TRIPLE_KEYS}


def streams_from_events(events) -> dict[Detector, np.ndarray]:
    """Group an interleaved (detector, time) event sequence into sorted streams.

    Only timestamps matter, so any interleaving of the same events yields the
    same streams.
    """
    collected: dict[Detector, list[int]] = {det: [] for det in Detector}
    for det, t in events:
        collected[Detector(det)].append(int(t))
    return {det: np.sort(np.asarray(ts, dtype=np.int64)) for det, ts in collected.items()}


def accumulate(
    streams: dict,
    config: CcuConfig,
    stream_duration_ps: int | None = None,
    metadata: dict | None = None,
) -> TallyTable:
    """Count all singles, pairs and triples for one acquisition.

    stream_duration_ps, when known, must cover the configured acquisition;
    a shorter stream would silently undercount, so it is an explicit error.
    """
    acq_ps = int(round(config.acquisition_s * 1e12))
    if acq_ps >= _MAX_KEY_TIME_PS:
        raise ValueError(f"acquisition of {acq_ps} ps exceeds the counter's limit of {_MAX_KEY_TIME_PS - 1} ps")
    if stream_duration_ps is not None and stream_duration_ps < acq_ps:
        raise ValueError(
            f"streams cover {stream_duration_ps} ps but the acquisition needs {acq_ps} ps"
        )
    clean = {}
    for det in Detector:
        t = _require_sorted(streams[det], f"accumulate[{det.label}]")
        if t.size and (t[0] < 0 or t[-1] > acq_ps):
            raise ValueError(f"accumulate[{det.label}]: timestamps outside [0, acquisition]")
        clean[det] = t
    singles = {det: int(clean[det].size) for det in Detector}
    partnered = _with_neighbour(clean, 2 * int(config.window_ps))
    gaps = _gap_table(partnered)
    tally = TallyTable(
        singles=singles,
        pairs=count_pairs(partnered, config, gaps),
        triples=count_triples(partnered, config, gaps),
        acquisition_s=config.acquisition_s,
        metadata=dict(metadata or {}),
    )
    return tally


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


def _group_name_lookup():
    names = {}
    for det in Detector:
        names[counter_name("single", det)] = ("single", det)
    for key in PAIR_KEYS:
        names[counter_name("pair", key)] = ("pair", key)
    for key in TRIPLE_KEYS:
        names[counter_name("triple", key)] = ("triple", key)
    return names


def tally_from_csv(text: str, acquisition_s: float, metadata: dict | None = None) -> TallyTable:
    """Rebuild a TallyTable from its CSV form (counts are authoritative)."""
    lookup = _group_name_lookup()
    singles, pairs, triples = {}, {}, {}
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("not a tally CSV: bad header")
    for ln in lines[1:]:
        name, count, _rate = ln.split(",")
        kind, key = lookup[name]
        {"single": singles, "pair": pairs, "triple": triples}[kind][key] = int(count)
    missing = (set(Detector) - singles.keys()) or (set(PAIR_KEYS) - pairs.keys()) or (
        set(TRIPLE_KEYS) - triples.keys()
    )
    if missing:
        raise ValueError(f"tally CSV is missing counters: {sorted(missing)}")
    return TallyTable(singles, pairs, triples, acquisition_s, dict(metadata or {}))
