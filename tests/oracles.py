"""Slow reference implementations the fast library paths are checked against.

A dense source that inverts the Poisson CDF for every slot, and event
dumps written and read one struct record or text line at a time.
"""

from __future__ import annotations

import struct

import numpy as np

from bunchsim.detector_bank import LABEL_TO_DETECTOR, Detector
from bunchsim.photon_source import (
    CHUNK_SLOTS,
    STREAM_SOURCE,
    num_chunks,
    poisson_cdf_table,
    slot_count,
    substream,
)


def dense_chunk(config, chunk_index: int) -> tuple[int, np.ndarray]:
    """(start_index, photon number of every slot) for one canonical chunk."""
    total = slot_count(config)
    start = chunk_index * CHUNK_SLOTS
    m = min(CHUNK_SLOTS, total - start)
    u = substream(config.seed, STREAM_SOURCE, chunk_index).random(m)
    table = poisson_cdf_table(config.mean_photon_number)
    return start, np.searchsorted(table, u, side="right").astype(np.int64)


def dense_stream(config) -> np.ndarray:
    """Photon number of every slot of the run, in slot order."""
    return np.concatenate([dense_chunk(config, i)[1] for i in range(num_chunks(config))])


RECORD = struct.Struct("<BQ")


def write_events(path, events_by_detector: dict, fmt: str) -> None:
    with open(path, "w" if fmt == "text" else "wb") as fh:
        for det in Detector:
            for t in np.asarray(events_by_detector.get(det, ()), dtype=np.int64):
                if fmt == "text":
                    fh.write(f"{det.label}\t{int(t)}\n")
                else:
                    fh.write(RECORD.pack(det, int(t)))


def read_events(path, fmt: str) -> dict:
    collected = {det: [] for det in Detector}
    if fmt == "text":
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    label, t = line.split("\t")
                    collected[LABEL_TO_DETECTOR[label]].append(int(t))
    else:
        with open(path, "rb") as fh:
            for det_id, t in RECORD.iter_unpack(fh.read()):
                collected[Detector(det_id)].append(t)
    return {det: np.asarray(ts, dtype=np.int64) for det, ts in collected.items()}
