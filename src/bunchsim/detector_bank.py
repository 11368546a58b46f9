"""Four saturating single-photon detectors behind a second splitter layer.

Port 1 feeds detectors A' and A'' through a 50/50 split, port 2 feeds B' and
B''. Each detector fires at most once per slot: k incident photons click with
probability 1 - (1 - efficiency)^k. Click timestamps get Gaussian jitter and
are kept as integer picoseconds throughout. Dark counts are a homogeneous
Poisson process per detector; they are merged with photon clicks before a
single non-paralyzable dead-time pass, because a registered dark click blinds
the detector exactly like a photon click does.

split_counts and detect_counts draw in photon_source.draw_blocks: a chunk's
count rows are int16 (photon numbers above 2^15 - 1 are rejected, not
wrapped) and its per-slot uniforms, probabilities and jittered times exist
one block at a time. detect_counts takes the slot clock as a function and
asks it for the nominal times of the fired slots only. The blocks consume
the generator as one whole-array call would, in the same stage-major order,
so the output is the same for any block size.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .photon_source import COUNT_DTYPE, draw_blocks, photon_numbers


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

LABEL_TO_DETECTOR = {label: det for det, label in _LABELS.items()}

# numpy's Generator.poisson rejects larger means ("lam value too large"); the
# mean number of dark clicks per detector, dark_rate * duration, must not exceed it
MAX_DARK_MEAN = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


@dataclass(frozen=True)
class DetectorConfig:
    efficiency: float
    dead_time_ps: int = 22_000
    jitter_sigma_ps: float = 350.0
    dark_rate: float = 27.0  # counts per second per detector

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")
        if self.dead_time_ps < 0:
            raise ValueError("dead_time_ps must be >= 0")
        if self.jitter_sigma_ps < 0:
            raise ValueError("jitter_sigma_ps must be >= 0")
        if self.dark_rate < 0:
            raise ValueError("dark_rate must be >= 0")


def split_counts(port1: np.ndarray, port2: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Fair 50/50 split of each port's photons onto its detector pair.

    Returns four length-m int16 count rows, indexed by Detector; port
    occupancies must lie in [0, 2^15 - 1], or ValueError. Every block's
    port-1 draw comes before any port-2 draw.
    """
    port1, port2 = photon_numbers(port1), photon_numbers(port2)
    rows = []
    for port in (port1, port2):
        first = np.empty(port.size, dtype=COUNT_DTYPE)
        for block in draw_blocks(port.size):
            first[block] = rng.binomial(port[block], 0.5)
        rows += [first, np.subtract(port, first, dtype=COUNT_DTYPE)]
    return tuple(rows)


def click_probability(k, efficiency: float):
    """P(detector fires | k incident photons) = 1 - (1-eta)^k, saturating."""
    return 1.0 - (1.0 - efficiency) ** np.asarray(k)


def detect_counts(
    counts,
    slot_time,
    config: DetectorConfig,
    rng: np.random.Generator,
) -> dict[Detector, np.ndarray]:
    """Vectorised click sampling for a chunk of slots.

    counts holds four length-m rows indexed by Detector, and slot_time maps
    an int64 array of row indices to the nominal int64 ps times of those
    slots (an array of times passes as times.__getitem__). Returns
    per-detector candidate click times (int64 ps, jittered, clipped at 0),
    before dead-time filtering. Draw order is fixed: per detector in
    canonical order, one uniform per occupied slot, then one normal per
    firing click, each drawn in draw_blocks.
    """
    out = {}
    for det in Detector:
        k = counts[det]
        fired = [np.empty(0, dtype=np.int64)]
        for block in draw_blocks(k.size):
            hit = np.flatnonzero(k[block] > 0)
            fire = rng.random(hit.size) < click_probability(k[block][hit], config.efficiency)
            fired.append(hit[fire] + block.start)
        sel = np.concatenate(fired)
        clicks = np.empty(sel.size, dtype=np.int64)
        for block in draw_blocks(sel.size):
            t = slot_time(sel[block]).astype(np.float64)
            if config.jitter_sigma_ps > 0:
                t = t + rng.normal(0.0, config.jitter_sigma_ps, size=t.size)
            clicks[block] = np.maximum(np.rint(t), 0)
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


def apply_dead_time(times, dead_time_ps: int) -> np.ndarray:
    """Non-paralyzable dead-time filter on a sorted timestamp array.

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
# events formatted per write call, which bounds the text writer's memory
_TEXT_BLOCK = 1 << 16


def write_events(path, events_by_detector: dict, fmt: str = "text") -> None:
    if fmt not in ("text", "binary"):
        raise ValueError(f"unknown event dump format {fmt!r}")
    streams = [(det, np.asarray(events_by_detector.get(det, ()), dtype=np.int64)) for det in Detector]
    if fmt == "text":
        with open(path, "w") as fh:
            for det, t in streams:
                first, sep = f"{det.label}\t", f"\n{det.label}\t"
                for lo in range(0, t.size, _TEXT_BLOCK):
                    fh.write(first + sep.join(map(str, t[lo : lo + _TEXT_BLOCK].tolist())) + "\n")
    else:
        with open(path, "wb") as fh:
            for det, t in streams:
                if t.size and t.min() < 0:
                    raise ValueError(f"{det.label}: negative timestamp in binary event dump")
                records = np.empty(t.size, dtype=_RECORD)
                records["det"] = det
                records["t"] = t
                records.tofile(fh)


def _group_by_detector(ids: np.ndarray, times: np.ndarray, known, what: str) -> dict[Detector, np.ndarray]:
    """Split events by detector, keeping file order; unknown ids are an error."""
    out = {det: times[ids == key] for det, key in zip(Detector, known)}
    if sum(t.size for t in out.values()) != ids.size:
        bad = ids[~np.isin(ids, known)][0]
        raise ValueError(f"unknown detector {what} {bad.item()!r} in event dump")
    return out


def read_events(path, fmt: str = "text") -> dict[Detector, np.ndarray]:
    if fmt == "text":
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(path, dtype=_TEXT_ROW, delimiter="\t", comments=None, ndmin=1)
        return _group_by_detector(rows["label"], rows["t"], [det.label for det in Detector], "label")
    if fmt == "binary":
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) % _RECORD.itemsize:
            raise ValueError(f"binary event dump ends in a partial {_RECORD.itemsize}-byte record")
        records = np.frombuffer(data, dtype=_RECORD)
        if records.size and records["t"].max() > np.iinfo(np.int64).max:
            raise ValueError("binary event dump holds a timestamp beyond the int64 range")
        return _group_by_detector(records["det"], records["t"].astype(np.int64), [int(det) for det in Detector], "id")
    raise ValueError(f"unknown event dump format {fmt!r}")
