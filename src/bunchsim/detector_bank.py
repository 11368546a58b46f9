"""Four saturating single-photon detectors behind a second splitter layer.

Port 1 feeds detectors A' and A'' through a 50/50 split, port 2 feeds B' and
B''. Each detector fires at most once per slot: k incident photons click with
probability 1 - (1 - efficiency)^k. Click timestamps get Gaussian jitter and
are kept as integer picoseconds throughout. Dark counts are a homogeneous
Poisson process per detector; they are merged with photon clicks before a
single non-paralyzable dead-time pass, because a registered dark click blinds
the detector exactly like a photon click does.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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


@dataclass(frozen=True)
class DetectorConfig:
    efficiency: float
    dead_time_ps: int = 22_000
    pulse_width_ps: int = 10_000
    jitter_sigma_ps: float = 350.0
    dark_rate: float = 27.0  # counts per second per detector

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")
        if self.pulse_width_ps < 0:
            raise ValueError("pulse_width_ps must be >= 0")
        if self.dead_time_ps < self.pulse_width_ps:
            raise ValueError("dead_time_ps must be >= pulse_width_ps")
        if self.jitter_sigma_ps < 0:
            raise ValueError("jitter_sigma_ps must be >= 0")
        if self.dark_rate < 0:
            raise ValueError("dark_rate must be >= 0")


class DetectionEvent(NamedTuple):
    detector: Detector
    time_ps: int


def split_to_detectors(port1: int, port2: int, rng: np.random.Generator) -> np.ndarray:
    """Fair 50/50 split of each port's photons onto its detector pair.

    Returns a length-4 int array indexed by Detector.
    """
    if port1 < 0 or port2 < 0:
        raise ValueError("port occupancies must be >= 0")
    a1 = rng.binomial(port1, 0.5)
    b1 = rng.binomial(port2, 0.5)
    return np.array([a1, port1 - a1, b1, port2 - b1], dtype=np.int64)


def split_counts(port1: np.ndarray, port2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorised split_to_detectors: shape (4, m) counts for m slots."""
    a1 = rng.binomial(port1, 0.5)
    b1 = rng.binomial(port2, 0.5)
    return np.stack([a1, port1 - a1, b1, port2 - b1]).astype(np.int64, copy=False)


def click_probability(k, efficiency: float):
    """P(detector fires | k incident photons) = 1 - (1-eta)^k, saturating."""
    return 1.0 - (1.0 - efficiency) ** np.asarray(k)


def detect_slot(
    counts,
    slot_time_ps: int,
    config: DetectorConfig,
    rng: np.random.Generator,
    last_click_ps: dict | None = None,
) -> list[DetectionEvent]:
    """Sample clicks for one slot's per-detector photon counts.

    counts: length-4 sequence indexed by Detector. If last_click_ps (a
    mutable Detector -> time mapping) is given, clicks inside the dead time
    of that detector's previous registered click are suppressed and the
    mapping is updated in place. Darks are not handled here; batch flows
    merge them and use apply_dead_time instead.
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


def detect_counts(
    counts: np.ndarray,
    slot_times_ps: np.ndarray,
    config: DetectorConfig,
    rng: np.random.Generator,
) -> dict[Detector, np.ndarray]:
    """Vectorised click sampling for a chunk of slots.

    counts has shape (4, m); returns per-detector candidate click times
    (int64 ps, jittered, clipped at 0), before dead-time filtering. Draw
    order is fixed: per detector in canonical order, one uniform per
    occupied slot, then one normal per firing click.
    """
    out = {}
    for det in Detector:
        k = counts[det]
        hit = np.flatnonzero(k > 0)
        if hit.size == 0:
            out[det] = np.empty(0, dtype=np.int64)
            continue
        fire = rng.random(hit.size) < click_probability(k[hit], config.efficiency)
        sel = hit[fire]
        t = slot_times_ps[sel].astype(np.float64)
        if config.jitter_sigma_ps > 0:
            t = t + rng.normal(0.0, config.jitter_sigma_ps, size=sel.size)
        out[det] = np.maximum(np.rint(t), 0).astype(np.int64)
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
    clicks do not extend the blind window. Any event at least dead_time_ps
    after its raw predecessor is always registered (the last registered
    event can only be earlier), so only events inside short-gap runs need
    sequential resolution. Those runs are rare at physical rates.
    """
    t = np.asarray(times, dtype=np.int64)
    if dead_time_ps <= 0 or t.size <= 1:
        return t.copy()
    keep = np.empty(t.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(t) >= dead_time_ps
    unsafe = np.flatnonzero(~keep)
    pos = 0
    while pos < unsafe.size:
        start = int(unsafe[pos])
        last = int(t[start - 1])  # predecessor of a run's first event is registered
        i = start
        while i < t.size and not keep[i]:
            if t[i] - last >= dead_time_ps:
                keep[i] = True
                last = int(t[i])
            i += 1
        pos = int(np.searchsorted(unsafe, i))
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
