"""Poissonian photon-number source on a fixed slot clock.

The attenuated beam is modelled as a stream of equally spaced time slots.
Slot j carries n_j photons with n_j ~ Poisson(mean_photon_number). No
counting statistic depends on the optical phase of a slot, so none is drawn.
Each slot consumes one 64-bit Philox word w, which is inverted through the
Poisson CDF as the uniform u = (w >> 11) * 2^-53 that ``Generator.random``
would make of it. The CDF is turned into an integer table once, so the word
is compared as an integer and no per-slot float is built. Only the occupied
slots (n_j >= 1) are materialised: at the reference operating points over
95% of slots are empty. They are held in two bytes each: a uint16 offset
within the chunk's 2^16-slot segment, placed by the cumulative count of
each segment (SegmentedSlots), and an int16 photon number. Both rows are
allocated once, for the expected occupancy plus ten standard deviations,
and filled block by block.

binomial_half is Generator.binomial(n, 1/2) for both splitter layers, with
the same values and generator state: numpy's inversion loop is replayed
on raw words, one per nonzero n, and a block it cannot replay exactly
(n > 60, or a word numpy would redraw) is handed to rng.binomial.

Reproducibility contract: all randomness is drawn from Philox counter-based
generators keyed by (seed, purpose, chunk).  Slot streams are generated in
fixed-size canonical chunks, so any partition of the chunk list across
workers reproduces the serial stream exactly. substream, the one place a
generator is built, loads numpy.random's generator code at a process's
first draw, so a process that draws nothing never loads it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

# Canonical chunk length in slots. Changing this constant changes which
# substream each slot draws from, i.e. the realisations for a given seed.
CHUNK_SLOTS = 1 << 22

# Substream purpose tags (first element of the Philox spawn key).
STREAM_SOURCE = 0
STREAM_ROUTING = 1
STREAM_DETECT = 2
STREAM_DARK = 3

# Slot counts above this are not exactly representable as float products and
# would take days to simulate anyway.
MAX_SLOTS = 2**53

# Above this mean exp(-mean) is no longer a normal double and the Poisson
# CDF table loses its precision (at 740 it ends at 1.000078, at 800 it is 0).
# Every entry point that takes a mean photon number checks it against this.
MAX_MEAN_PHOTON_NUMBER = -math.log(sys.float_info.min)

# Photon numbers per slot, port and detector are held in int16 count rows. A
# photon number is an index into the CDF table, which has at most
# 21 + 12 * MAX_MEAN_PHOTON_NUMBER ~ 8521 entries, well below 2^15.
COUNT_DTYPE = np.int16
MAX_COUNT = int(np.iinfo(COUNT_DTYPE).max)

# Entries drawn at a time, by the source scan and by the per-chunk routing,
# split and detection draws. A 512 KB block is reused by the allocator from
# block to block, where one array per 2^22-slot chunk would be mapped and
# faulted in anew for every chunk.
_SCAN_BLOCK = 1 << 16

# An occupied slot is held as its uint16 offset within a segment of 2^16
# slots of its chunk. The segments are fixed, whatever _SCAN_BLOCK is.
_SEGMENT_BITS = 16

# occupied_slots allocates its rows for the mean number of occupied slots
# plus this many standard deviations, and grows them only beyond that.
_OCCUPANCY_SIGMAS = 10.0


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator derived from (seed, path), stable across runs.

    numpy.random is imported here, at a process's first draw.
    """
    from numpy.random import Generator, Philox, SeedSequence

    ss = SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return Generator(Philox(ss))


def check_rules(config, rules: dict, joint=()) -> None:
    """Raise one ValueError that names every field of config breaking its rule.

    rules maps a field to a check, value -> True or the reason the value is
    refused; the CLI applies the same checks to its keys. The joint checks,
    config -> True or a reason, run only once every field has passed its own.
    Only a reason string fails, so a numpy scalar's np.True_ passes.
    """
    failed = [f"{name}: {why}" for name, rule in rules.items() if isinstance(why := rule(getattr(config, name)), str)]
    if not failed:
        failed = [why for rule in joint if isinstance(why := rule(config), str)]
    if failed:
        raise ValueError("; ".join(failed))


def integral(rule):
    """The range rule of an integer field, after refusing any non-integer such as 2.5 or inf."""
    return lambda v: rule(v) if isinstance(v, numbers.Integral) else "must be an integer"


@dataclass(frozen=True)
class SourceConfig:
    mean_photon_number: float
    slot_rate: float  # slots per second
    duration: float  # seconds, at least the 1 ps timestamp resolution
    seed: int

    rules: ClassVar[dict] = {
        "mean_photon_number": (
            lambda v: 0 <= v <= MAX_MEAN_PHOTON_NUMBER or f"must be in [0, {MAX_MEAN_PHOTON_NUMBER:.1f}]"
        ),
        "slot_rate": lambda v: 0 < v < math.inf or "must be finite and > 0",
        "duration": lambda v: 1e-12 <= v < math.inf or "must be finite and >= 1e-12",
        "seed": integral(lambda v: v >= 0 or "must be >= 0"),
    }

    def __post_init__(self):
        check_rules(self, self.rules, [
            lambda c: c.duration * c.slot_rate <= MAX_SLOTS or "acquisition_s * slot_rate must not exceed 2^53 slots"
        ])


def draw_blocks(size: int) -> list[slice]:
    """Consecutive slices of at most _SCAN_BLOCK entries that cover range(size).

    Drawing block after block from one generator gives the same values, and
    leaves it in the same state, as one call over the whole range: every
    sampler drawn this way (raw words, binomial_half, integers, random,
    normal) is a sequential per-entry loop whose state persists across
    calls. Philox's buffered 32-bit half-word lives in its bit generator,
    and no sampler used here touches it. numpy's binomial keeps a set-up
    cache (of n and p) in the Generator, but it only saves work: a block
    that binomial_half hands to rng.binomial draws the same values whatever
    the cache holds.
    """
    return [slice(lo, min(lo + _SCAN_BLOCK, size)) for lo in range(0, size, _SCAN_BLOCK)]


def photon_numbers(n) -> np.ndarray:
    """n as an array, or ValueError if an entry does not fit an int16 count row.

    route_counts, split_counts and detect_counts are public and accept any
    integer input; they reject photon numbers outside [0, MAX_COUNT] instead
    of wrapping.
    """
    n = np.asarray(n)
    if n.size and (n.min() < 0 or n.max() > MAX_COUNT):
        raise ValueError(f"photon numbers must be in [0, {MAX_COUNT}]")
    return n


def slot_count(config: SourceConfig) -> int:
    """floor(duration * slot_rate), at most MAX_SLOTS (SourceConfig checks it)."""
    return math.floor(config.duration * config.slot_rate)


def num_chunks(config: SourceConfig) -> int:
    """The canonical chunks of a run, at least one: a run of no slot is chunk 0, empty."""
    return max(1, -(-slot_count(config) // CHUNK_SLOTS))


def chunk_start(chunk_index: int) -> int:
    """Index of the first slot of a chunk."""
    return chunk_index * CHUNK_SLOTS


def poisson_cdf_table(mean: float) -> np.ndarray:
    """Cumulative Poisson probabilities truncated at double precision.

    Inversion sampling: n = searchsorted(table, u, side='right') maps a
    uniform u to the smallest n with CDF(n) > u. occupied_slots does the
    same on each slot's raw word through the integer table of _cdf_edges.
    """
    if mean < 0:
        raise ValueError("mean must be >= 0")
    if mean == 0:
        return np.array([1.0])
    term = math.exp(-mean)
    cdf = [term]
    k = 0
    # extend until the remaining tail is below double-precision resolution
    while cdf[-1] < 1.0 - 1e-16 and k < 20 + int(12 * mean):
        k += 1
        term *= mean / k
        cdf.append(cdf[-1] + term)
    return np.asarray(cdf)


def uniform_edges(c) -> np.ndarray:
    """ceil(c * 2^53) as uint64: (w >> 11) * 2^-53 < c exactly when (w >> 11) < it.

    (w >> 11) * 2^-53 is the uniform Generator.random makes of the raw word
    w. Scaling by 2^53 is exact, so for the integer w >> 11, u < c holds
    exactly when w >> 11 < ceil(c * 2^53), for any c in [0, 1].
    """
    return np.ceil(np.asarray(c, dtype=np.float64) * 2.0**53).astype(np.uint64)


def _cdf_edges(table: np.ndarray) -> np.ndarray:
    """Words w with (w >> 11) * 2^-53 >= table[k] exactly when w >= edges[k].

    Entries that no u < 1 reaches (uniform edge 2^53, which includes
    c == 1.0) are dropped; they sit at the end of the table.
    """
    top = uniform_edges(table)
    return top[top < np.uint64(2**53)] << np.uint64(11)


# Generator.binomial(n, p) runs numpy's inversion loop (random_binomial_inversion)
# while n * p <= 30, so for n <= 60 at p = 1/2; above it runs BTPE.
_INVERSION_MAX_N = 60


def _inversion_table() -> np.ndarray:
    """px[x, n], the loop's P(X = x) for binomial(n, 1/2), as numpy forms it.

    The loop starts at px = exp(n * log(q)) and steps px = ((n - X + 1) * p *
    px) / (X * q); Python floats give the same doubles. Entries with x > n
    are inf, so no uniform passes them.
    """
    rows = [[math.inf] * (_INVERSION_MAX_N + 1) for _ in range(_INVERSION_MAX_N + 2)]
    for n in range(1, _INVERSION_MAX_N + 1):
        px = math.exp(n * math.log(0.5))
        rows[0][n] = px
        for x in range(1, n + 1):
            px = ((n - x + 1) * 0.5 * px) / (x * 0.5)
            rows[x][n] = px
    return np.array(rows)


_PX = _inversion_table()
# w > _HALF exactly when (w >> 11) * 2^-53 > 1/2: the whole loop for n = 1
_HALF = np.uint64(2**63 + 2**11 - 1)


def _inversion_loop(words: np.ndarray, n: np.ndarray) -> np.ndarray:
    """X of numpy's inversion loop on each word, for photon numbers 1 <= n <= 60.

    While U > px: U -= px, X += 1, on every live entry at once. An entry
    whose loop runs past its n ends with X = n + 1: numpy would redraw it.
    """
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    n = n.astype(np.intp)
    out = np.zeros(u.size, dtype=COUNT_DTYPE)
    live = np.arange(u.size)
    for x, row in enumerate(_PX, start=1):
        px = row[n]
        go = np.flatnonzero(u > px)
        if not go.size:
            break
        live = live[go]
        out[live] = x
        u = (u - px)[go]
        n = n[go]
    return out


def binomial_half(n, rng: np.random.Generator) -> np.ndarray:
    """rng.binomial(n, 0.5) as an int16 row, leaving rng in the same state.

    numpy inverts one uniform per nonzero n <= 60: n = 0 draws nothing, and
    U = (w >> 11) * 2^-53 is made of one raw Philox word. So the words are
    drawn at once and numpy's loop is replayed on them; for n = 1 it is one
    compare. A row with an n > 60 (numpy's BTPE branch), or with a word
    whose loop runs past n (numpy draws another; a handful of the 2^53
    words do for some n), is drawn by rng.binomial from the state saved
    before it. n is a 1-D integer row of photon numbers.
    """
    n = np.asarray(n)
    lo, hi = (n.min(), n.max()) if n.size else (0, 0)
    if lo < 0 or hi > _INVERSION_MAX_N:
        return rng.binomial(n, 0.5).astype(COUNT_DTYPE)  # BTPE, or numpy's error for n < 0
    bits = rng.bit_generator
    saved = bits.state
    nonzero = None if lo else np.flatnonzero(n > 0)  # routed photon numbers are all >= 1
    live = n if nonzero is None else n[nonzero]
    words = bits.random_raw(live.size)
    x = (words > _HALF).astype(COUNT_DTYPE)
    many = np.flatnonzero(live > 1)
    if many.size:
        live = live[many]
        loop = _inversion_loop(words[many], live)
        if (loop > live).any():
            bits.state = saved
            return rng.binomial(n, 0.5).astype(COUNT_DTYPE)
        x[many] = loop
    if nonzero is None:
        return x
    out = np.zeros(n.size, dtype=COUNT_DTYPE)
    out[nonzero] = x
    return out


class SegmentedSlots(NamedTuple):
    """The occupied slots of one chunk, as uint16 offsets within 2^16-slot segments.

    Entry i lies in the segment s with segment_ends[s - 1] <= i < segment_ends[s]
    (segment_ends counts the occupied slots up to the end of each segment, 64
    entries for a full chunk) and is slot start + s * 2^16 + offsets[i].
    """

    start: int
    offsets: np.ndarray  # uint16
    segment_ends: np.ndarray  # int64

    def indices(self, rows=None) -> np.ndarray:
        """The int64 slot indices of the entries rows, an ascending index array, or of every entry."""
        rows = np.arange(self.offsets.size) if rows is None else np.asarray(rows)
        per_segment = np.diff(np.searchsorted(rows, self.segment_ends), prepend=0)
        first = self.start + (np.arange(self.segment_ends.size, dtype=np.int64) << _SEGMENT_BITS)
        return np.repeat(first, per_segment) + self.offsets[rows]


def occupied_slots(config: SourceConfig, chunk_index: int) -> tuple[SegmentedSlots, np.ndarray]:
    """(slots, photon_numbers) of the occupied slots of one chunk.

    Entry i is slot slots.indices()[i] and carries photon_numbers[i] >= 1
    photons (int16, COUNT_DTYPE); every other slot of the chunk is empty.
    slots holds the chunk's start and uint16 offsets within 2^16-slot
    segments, which slots.indices widens to int64 slot indices. One 64-bit
    word w per slot is drawn from the chunk's substream and n =
    searchsorted(edges, w, side='right'), which is the inversion of u =
    (w >> 11) * 2^-53 through the CDF table. A slot is empty exactly when
    w < edges[0], and only the others are inverted; words are scanned in
    draw_blocks. The two rows are allocated once for the expected occupancy
    m * (1 - cdf[0]) plus _OCCUPANCY_SIGMAS standard deviations, grown only
    past it, and cut to size at the end. This is the primitive every stream
    consumer builds on; the per-chunk substream makes the result independent
    of how chunks are distributed over workers.
    """
    total = slot_count(config)
    start = chunk_start(chunk_index)
    if not 0 <= chunk_index < num_chunks(config):
        raise IndexError(f"chunk {chunk_index} out of range")
    m = min(CHUNK_SLOTS, total - start)
    table = poisson_cdf_table(config.mean_photon_number)
    edges = _cdf_edges(table)
    p = 1.0 - table[0]
    capacity = min(m, math.ceil(m * p + _OCCUPANCY_SIGMAS * math.sqrt(m * p * (1.0 - p))))
    offsets = np.empty(capacity, dtype=np.uint16)
    counts = np.empty(capacity, dtype=COUNT_DTYPE)
    # the first slot after each segment, and per segment the occupied slots before it
    stops = np.arange(1, -(-m >> _SEGMENT_BITS) + 1, dtype=np.int64) << _SEGMENT_BITS
    segment_ends = np.zeros(stops.size, dtype=np.int64)
    size = 0
    if edges.size:
        bits = substream(config.seed, STREAM_SOURCE, chunk_index).bit_generator
        for block in draw_blocks(m):
            raw = bits.random_raw(block.stop - block.start)
            hit = np.flatnonzero(raw >= edges[0])
            end = size + hit.size
            if end > capacity:
                capacity = min(m, 2 * end)
                # no view of either row is alive here
                offsets.resize(capacity, refcheck=False)
                counts.resize(capacity, refcheck=False)
            offsets[size:end] = (hit + block.start) & ((1 << _SEGMENT_BITS) - 1)
            counts[size:end] = np.searchsorted(edges, raw[hit], side="right")
            segment_ends += np.searchsorted(hit, stops - block.start)
            size = end
    offsets.resize(size, refcheck=False)
    counts.resize(size, refcheck=False)
    return SegmentedSlots(start, offsets, segment_ends), counts
