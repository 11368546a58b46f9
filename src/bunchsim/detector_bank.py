"""Four saturating single-photon detectors behind a second splitter layer.

Port 1 feeds detectors A' and A'' through a 50/50 split, port 2 feeds B' and
B''. Each detector fires at most once per slot: k incident photons click with
probability 1 - (1 - efficiency)^k. Click timestamps get Gaussian jitter and
are kept as integer picoseconds throughout. Dark counts are a homogeneous
Poisson process per detector; they are merged with photon clicks before a
single non-paralyzable dead-time pass, because a registered dark click blinds
the detector exactly like a photon click does.

split_counts and detect_counts draw in photon_source.draw_blocks: a chunk's
count rows are int16 (photon numbers outside [0, 2^15 - 1] are rejected,
not wrapped) and its per-slot words and jittered times exist one block at a
time. Both work port by port: the engine splits port 1, detects A' and
A'', then splits port 2 and detects B' and B''. The split draws come from
one generator, port 1's before port 2's, and the detection draws from
another, A', A'', B', B'' in turn. split_counts draws
photon_source.binomial_half, which equals rng.binomial(n, 0.5), and
writes the second detector's row over the port row it is given, so a
split holds two rows, not three. detect_counts tabulates the click
probability p_k once per call, as the integer edge ceil(p_k * 2^53), and
fires a slot on its raw word w when (w >> 11) < edge: exactly when the
uniform Generator.random makes of w is below p_k. Its fired-slot indices
are int32 (below CHUNK_SLOTS), one piece per block. It takes the slot
clock as a function and asks it for the nominal times of each piece of
fired slots, which it times into one click array without joining them.
The blocks consume the generator as one whole-array call would, in the
same stage-major order, so the output is the same for any block size.
"""

from __future__ import annotations

import enum
import math
import os
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .photon_source import (
    COUNT_DTYPE,
    binomial_half,
    check_rules,
    draw_blocks,
    integral,
    photon_numbers,
    uniform_edges,
)


class Detector(enum.IntEnum):
    """Detector indices in canonical order. Labels follow the A'/B'' convention."""

    A1 = 0
    A2 = 1
    B1 = 2
    B2 = 3

    @property
    def label(self) -> str:
        return _LABELS[self]


_LABELS = {
    Detector.A1: "A'",
    Detector.A2: "A''",
    Detector.B1: "B'",
    Detector.B2: "B''",
}

# numpy's Generator.poisson rejects larger means ("lam value too large"); the
# mean number of dark clicks per detector, dark_rate * duration, must not exceed it
MAX_DARK_MEAN = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))

# picosecond values stay below 2^53, where float64 arithmetic on them is exact
MAX_PS = 2**53


@dataclass(frozen=True)
class DetectorConfig:
    efficiency: float
    dead_time_ps: int = 22_000
    jitter_sigma_ps: float = 350.0
    dark_rate: float = 27.0  # counts per second per detector

    rules: ClassVar[dict] = {
        "efficiency": lambda v: 0 <= v <= 1 or "must be in [0, 1]",
        "dead_time_ps": integral(lambda v: 0 <= v < MAX_PS or "must be in [0, 2^53)"),
        "jitter_sigma_ps": lambda v: 0 <= v < MAX_PS or "must be in [0, 2^53)",
        "dark_rate": lambda v: 0 <= v < math.inf or "must be finite and >= 0",
    }

    def __post_init__(self):
        check_rules(self, self.rules)


def split_counts(port: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Fair 50/50 split of one port's photons onto its detector pair.

    Returns the pair's two length-m int16 count rows, the first detector's
    (A' or B') first; port occupancies must lie in [0, 2^15 - 1], or
    ValueError. The port's draws are binomial_half's, block by block. The
    port row is taken over: a writeable int16 port is overwritten with the
    second detector's row and returned as it, so a split holds two rows,
    not three; a caller that splits a row it still needs passes a copy. Any
    other port is copied to an int16 row first.
    """
    port = np.require(photon_numbers(port), COUNT_DTYPE, "W")
    first = np.empty(port.size, dtype=COUNT_DTYPE)
    for block in draw_blocks(port.size):
        first[block] = binomial_half(port[block], rng)
    return first, np.subtract(port, first, out=port)


def click_probability(k, efficiency: float):
    """P(detector fires | k incident photons) = 1 - (1-eta)^k, saturating."""
    return 1.0 - (1.0 - efficiency) ** np.asarray(k)


def detect_counts(
    counts: dict,
    slot_time,
    config: DetectorConfig,
    rng: np.random.Generator,
) -> dict[Detector, np.ndarray]:
    """Vectorised click sampling for a chunk of slots.

    counts maps detectors to length-m rows of photon numbers in
    [0, 2^15 - 1] (or ValueError); each row is popped from counts once its
    slots are drawn, so a caller that holds no other reference frees it there.
    slot_time maps an int32 array of row indices to the nominal int64 ps
    times of those slots (an array of times passes as times.__getitem__).
    Returns per-detector candidate click times (int64 ps, jittered, clipped
    at 0), before dead-time filtering. Draw order is fixed: per detector in
    canonical order, one raw word per occupied slot (the word of one
    Generator.random uniform) in draw_blocks, then one normal per firing
    click. The fired slots of each block are timed as they stand, piece by
    piece, into the detector's one click array: normal draws give the same
    values in any partition, so the pieces are never joined.
    """
    top = max((int(photon_numbers(row).max()) for row in counts.values() if row.size), default=0)
    edges = uniform_edges(click_probability(np.arange(top + 1), config.efficiency))
    bits = rng.bit_generator
    out = {}
    for det in sorted(counts):
        k = counts.pop(det)
        fired = []
        for block in draw_blocks(k.size):
            hit = np.flatnonzero(k[block] > 0)
            fire = np.flatnonzero((bits.random_raw(hit.size) >> np.uint64(11)) < edges[k[block][hit]])
            fired.append(np.add(hit[fire], block.start, dtype=np.int32))
        del k
        clicks = np.empty(sum(piece.size for piece in fired), dtype=np.int64)
        lo = 0
        for piece in fired:
            t = slot_time(piece).astype(np.float64)
            if config.jitter_sigma_ps > 0:
                t = t + rng.normal(0.0, config.jitter_sigma_ps, size=t.size)
            clicks[lo : lo + t.size] = np.maximum(np.rint(t), 0)
            lo += t.size
        out[det] = clicks
    return out


def dark_events(config: DetectorConfig, duration_s: float, rng: np.random.Generator) -> dict[Detector, np.ndarray]:
    """Homogeneous Poisson dark clicks per detector over [0, duration)."""
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    t_max = int(round(duration_s * 1e12))
    out = {}
    for det in Detector:
        n = rng.poisson(config.dark_rate * duration_s)
        times = rng.integers(0, t_max, size=n, dtype=np.int64) if n else np.empty(0, dtype=np.int64)
        out[det] = np.sort(times)
    return out


def apply_dead_time(times, dead_time_ps: int, last: int | None = None) -> np.ndarray:
    """Non-paralyzable dead-time filter on a sorted timestamp array.

    last, if given, is the detector's last registered time before times[0].
    The events less than dead_time_ps after it are suppressed, and the first
    one after them is registered, so a stream filtered piece by piece with
    this carry equals the stream filtered whole.

    A registered click blinds the detector for dead_time_ps; suppressed
    clicks do not extend the blind window. An event at least dead_time_ps
    after its raw predecessor is always registered (the last registered
    event can only be earlier). Inside a run of short gaps, the click
    registered after a registered one is the first event at least
    dead_time_ps later, so every run is resolved by a chain of jumps that
    starts at the registered event before it. All chains jump together,
    one searchsorted per round, and a chain ends when it leaves the array
    or lands on an event that is already registered: the end of its run.
    The rounds number the longest chain, and the work is proportional to
    the short-gap events only. Timestamps plus dead_time_ps must fit in
    int64.
    """
    t = np.asarray(times, dtype=np.int64)
    if last is not None:
        t = t[np.searchsorted(t, last + dead_time_ps) :]
    keep = np.ones(t.size, dtype=bool)
    keep[1:] = np.diff(t) >= dead_time_ps
    cur = np.flatnonzero(keep[:-1] & ~keep[1:])
    while cur.size:
        cur = np.searchsorted(t, t[cur] + dead_time_ps)
        cur = cur[cur < t.size]
        cur = cur[~keep[cur]]
        keep[cur] = True
    return t[keep]


# --- event dump formats ----------------------------------------------------
#
# text: one "<label>\t<timestamp_ps>" line per event, grouped by detector in
# canonical order, time-sorted within each detector.
# binary: packed little-endian records of (uint8 detector id, uint64
# timestamp_ps), same ordering.

_RECORD = np.dtype([("det", "u1"), ("t", "<u8")])
# labels have at most 3 characters; a longer field is cut to 4 and stays unknown
_TEXT_ROW = np.dtype([("label", "U4"), ("t", "<i8")])


def write_events(path, pieces, fmt: str = "text") -> None:
    """Dump pieces of per-detector sorted timestamps, each detector's pieces in
    turn, never joined, in draw_blocks. A refused binary dump leaves no file."""
    if fmt not in ("text", "binary"):
        raise ValueError(f"unknown event dump format {fmt!r}")
    pieces = [{det: np.asarray(p.get(det, ()), dtype=np.int64) for det in Detector} for p in pieces]
    for det in Detector:
        if fmt == "binary" and any(p[det].size and p[det].min() < 0 for p in pieces):
            raise ValueError(f"{det.label}: negative timestamp in binary event dump")
    with open(path, "w" if fmt == "text" else "wb") as fh:
        for det in Detector:
            for p in pieces:
                for block in draw_blocks(p[det].size):
                    t = p[det][block]
                    if fmt == "text":
                        fh.write(f"{det.label}\t" + f"\n{det.label}\t".join(map(str, t.tolist())) + "\n")
                    else:
                        records = np.empty(t.size, dtype=_RECORD)
                        records["det"], records["t"] = det, t
                        records.tofile(fh)


def _group_by_label(labels: np.ndarray, times: np.ndarray) -> dict[Detector, np.ndarray]:
    """Split text-dump events by detector, keeping file order; an unknown label is an error."""
    out = {det: times[labels == det.label] for det in Detector}
    if sum(t.size for t in out.values()) != labels.size:
        bad = labels[~np.isin(labels, [det.label for det in Detector])][0]
        raise ValueError(f"unknown detector label {bad.item()!r} in event dump")
    return out


def _record_blocks(fh):
    """The binary dump's whole records in draw_blocks, from the start of the file."""
    fh.seek(0)
    for block in draw_blocks(os.fstat(fh.fileno()).st_size // _RECORD.itemsize):
        yield np.fromfile(fh, dtype=_RECORD, count=block.stop - block.start)


def _read_binary(path) -> dict[Detector, np.ndarray]:
    """Two passes over record blocks: count and check, then fill.

    Only one block of records is held at a time, beside the returned streams.
    """
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size % _RECORD.itemsize:
            raise ValueError(f"binary event dump ends in a partial {_RECORD.itemsize}-byte record")
        counts = np.zeros(256, dtype=np.int64)
        top, unknown = 0, None
        for block in _record_blocks(fh):
            counts += np.bincount(block["det"], minlength=256)
            top = max(top, int(block["t"].max()))
            if unknown is None and block["det"].max() >= len(Detector):
                unknown = int(block["det"][block["det"] >= len(Detector)][0])
        if top > np.iinfo(np.int64).max:
            raise ValueError("binary event dump holds a timestamp beyond the int64 range")
        if unknown is not None:
            raise ValueError(f"unknown detector id {unknown!r} in event dump")
        out = {det: np.empty(counts[det], dtype=np.int64) for det in Detector}
        filled = dict.fromkeys(Detector, 0)
        for block in _record_blocks(fh):
            for det in Detector:
                part = block["t"][block["det"] == det]  # in file order, grouped or interleaved
                out[det][filled[det] : filled[det] + part.size] = part
                filled[det] += part.size
    return out


def read_events(path, fmt: str = "text") -> dict[Detector, np.ndarray]:
    if fmt == "text":
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(path, dtype=_TEXT_ROW, delimiter="\t", comments=None, ndmin=1)
        return _group_by_label(rows["label"], rows["t"])
    if fmt == "binary":
        return _read_binary(path)
    raise ValueError(f"unknown event dump format {fmt!r}")
