"""Coincidence counting over per-detector timestamp streams.

Windows use half-width semantics: two clicks coincide when |t1 - t2| <=
window_ps, a triple coincides when max - min <= 2 * window_ps. Matching is
greedy earliest-first with single use per channel, the same behaviour as a
streaming hardware AND gate; on sorted streams this greedy count equals the
brute-force maximum matching.

The merged timeline of all four streams is cut into clusters at gaps
> 2 * window_ps. No pair or triple bridges such a gap, and a greedy pointer
short of it is the earliest, so it passes the gap before any later match:
each walk splits into independent walks per cluster. A cluster with one
click on each detector of a counter holds one coincidence or none; only
clusters with two clicks on one of its detectors need the greedy walk.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

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


# Merge keys 4 * t + detector are int64, so timestamps must stay below 2**61 ps.
_MAX_KEY_TIME_PS = 2**61

# Events per stream between merge block edges: a block holds fewer than
# 4 * _MERGE_STEP keys, which bounds the pre-filter's memory on long runs.
_MERGE_STEP = 1 << 14


def _with_neighbour(streams: dict, spread: int) -> np.ndarray:
    """Sorted merge keys 4 * t + detector of the events that have a neighbour.

    The four streams are merged into one sorted timeline of keys, block by
    block in time. |dt| <= spread implies a key gap <= 4 * spread + 3, so
    keeping both ends of every such gap keeps every event with a neighbour
    within `spread` ps; the dropped ones are alone in their cluster.
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
    return np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)


class _Clusters(NamedTuple):
    keys: np.ndarray  # sorted merge keys 4 * t + detector
    cluster: np.ndarray  # cluster index of each key
    one: np.ndarray  # (4, clusters): the detector clicks exactly once in the cluster
    some: np.ndarray  # (4, clusters): the detector clicks in the cluster
    only: np.ndarray  # (4, clusters): the time of the click where there is exactly one


def _clusters(keys: np.ndarray, spread: int) -> _Clusters:
    """Split sorted merge keys at key gaps > 4 * spread + 3, which are time gaps > spread."""
    start = np.ones(keys.size, dtype=bool)
    start[1:] = keys[1:] - keys[:-1] > 4 * spread + 3
    cluster = np.cumsum(start) - 1
    n = int(cluster[-1]) + 1 if keys.size else 0
    times, det = keys >> 2, keys & 3
    cell = det * n + cluster
    only = np.zeros(4 * n, dtype=np.int64)
    only[cell] = times
    clicks = np.bincount(cell, minlength=4 * n).reshape(4, n)
    return _Clusters(keys, cluster, clicks == 1, clicks > 0, only.reshape(4, n))


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


def _cluster_count(c: _Clusters, key, width: int) -> int:
    """Greedy count of the coincidences (max - min <= width) of the detectors in key.

    A cluster with one click on each detector of key holds one coincidence
    or none. Clusters with two clicks on a detector of key and none missing
    share one greedy walk, which their gaps (> spread >= width) split exactly.
    """
    rows = list(key)
    single = np.logical_and.reduce(c.one[rows])
    count = np.count_nonzero(single & (np.ptp(c.only[rows], axis=0) <= width))
    hard = np.logical_and.reduce(c.some[rows]) & ~single
    if hard.any():
        walk = _greedy_pairs if len(rows) == 2 else _greedy_triples
        keys = c.keys[hard[c.cluster]]
        count += walk(*((keys[keys & 3 == d] >> 2).tolist() for d in rows), width)
    return int(count)


def _count_streams(times, width: int, who: str) -> int:
    """One count over 2 or 3 sorted streams put on detector slots, shifted to start at 0."""
    streams = {det: np.empty(0, dtype=np.int64) for det in Detector}
    streams.update(zip(Detector, (_require_sorted(t, who) for t in times)))
    origin = min((int(t[0]) for t in streams.values() if t.size), default=0)
    if max((int(t[-1]) - origin for t in streams.values() if t.size), default=0) >= _MAX_KEY_TIME_PS:
        raise ValueError(f"{who}: the streams span {_MAX_KEY_TIME_PS} ps or more")
    keys = _with_neighbour({det: t - origin for det, t in streams.items()}, width)
    return _cluster_count(_clusters(keys, width), tuple(Detector)[: len(times)], width)


def pair_coincidences(times_x, times_y, window_ps: int) -> int:
    """Greedy single-use pair count between two sorted streams."""
    return _count_streams((times_x, times_y), int(window_ps), "pair_coincidences")


def triple_coincidences(times_x, times_y, times_z, window_ps: int) -> int:
    """Greedy single-use triple count; spread limit is 2 * window_ps."""
    return _count_streams((times_x, times_y, times_z), 2 * int(window_ps), "triple_coincidences")


def count_pairs(clusters: _Clusters, config: CcuConfig) -> dict:
    """All six pair counters over the clusters of one acquisition."""
    return {key: _cluster_count(clusters, key, int(config.window_ps)) for key in PAIR_KEYS}


def count_triples(clusters: _Clusters, config: CcuConfig) -> dict:
    """All four triple counters over the clusters of one acquisition."""
    return {key: _cluster_count(clusters, key, 2 * int(config.window_ps)) for key in TRIPLE_KEYS}


def accumulate(streams: dict, config: CcuConfig, metadata: dict | None = None) -> TallyTable:
    """Count all singles, pairs and triples for one acquisition [0, acquisition_s).

    The ten counters read one set of clusters cut at time gaps > 2 * window;
    such gaps split every greedy walk exactly (module docstring).
    """
    acq_ps = int(round(config.acquisition_s * 1e12))
    if acq_ps >= _MAX_KEY_TIME_PS:
        raise ValueError(f"acquisition of {acq_ps} ps exceeds the counter's limit of {_MAX_KEY_TIME_PS - 1} ps")
    clean = {}
    for det in Detector:
        t = _require_sorted(streams[det], f"accumulate[{det.label}]")
        if t.size and (t[0] < 0 or t[-1] >= acq_ps):
            raise ValueError(f"accumulate[{det.label}]: timestamps outside [0, acquisition)")
        clean[det] = t
    singles = {det: int(clean[det].size) for det in Detector}
    spread = 2 * int(config.window_ps)
    clusters = _clusters(_with_neighbour(clean, spread), spread)
    tally = TallyTable(
        singles=singles,
        pairs=count_pairs(clusters, config),
        triples=count_triples(clusters, config),
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
        if name not in lookup:
            raise ValueError(f"tally CSV names an unknown counter: {name!r}")
        kind, key = lookup[name]
        group = {"single": singles, "pair": pairs, "triple": triples}[kind]
        if key in group:
            raise ValueError(f"tally CSV repeats the counter {name!r}")
        value = int(count)
        if not 0 <= value < 2**63:
            raise ValueError(f"tally CSV count of {name} must be in [0, 2^63), got {count}")
        group[key] = value
    missing = (set(Detector) - singles.keys()) or (set(PAIR_KEYS) - pairs.keys()) or (
        set(TRIPLE_KEYS) - triples.keys()
    )
    if missing:
        raise ValueError(f"tally CSV is missing counters: {sorted(missing)}")
    return TallyTable(singles, pairs, triples, acquisition_s, dict(metadata or {}))
