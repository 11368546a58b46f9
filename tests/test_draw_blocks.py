"""The per-chunk model stage draws in photon_source.draw_blocks into narrow rows.

Routing, splitting and detection must give the same values, and leave their
generator in the same state, for any block size: a block at least as long as
the input is one whole-array call. Count rows are int16, and a chunk's
memory stays bounded; the slot clock stays exact past 2^31 slots.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunchsim import photon_source
from bunchsim.detector_bank import Detector, DetectorConfig, detect_counts, split_counts
from bunchsim.photon_source import (
    CHUNK_SLOTS,
    STREAM_ROUTING,
    SourceConfig,
    num_chunks,
    occupied_slots,
    slot_count,
    substream,
)
from bunchsim.routing_models import RoutingModel, route_counts
from bunchsim.simulate import SimConfig, _simulate_chunk, simulate
from oracles import traced_peak

ONE_BLOCK = CHUNK_SLOTS + 1
BLOCKS = st.sampled_from([1, 3, 1000, 1 << 16, ONE_BLOCK])
# n >= 61 takes binomial's BTPE branch at p = 1/2, which binomial_half hands
# to numpy; 1..60 its replay of numpy's inversion loop; 0 and 2 take the
# phase-basis fix-up and the zero-draw case
PHOTON_NUMBER = st.one_of(st.integers(0, 4), st.integers(5, 60), st.integers(61, 500))
PHOTON_NUMBERS = st.lists(PHOTON_NUMBER, max_size=300)


def split_ports(port1, port2, rng):
    """The four count rows, indexed by Detector, of port 1's split and then port 2's."""
    return split_counts(port1, rng) + split_counts(port2, rng)


def with_block(block, draw):
    """(values, generator state, next raw word) of draw(rng) at one block size."""
    rng = substream(11, 5)
    with mock.patch.object(photon_source, "_SCAN_BLOCK", block):
        values = draw(rng)
    state = str(rng.bit_generator.state)
    return values, state, int(rng.bit_generator.random_raw())


def assert_block_invariant(block, draw, equal):
    values, state, raw = with_block(block, draw)
    ref_values, ref_state, ref_raw = with_block(ONE_BLOCK, draw)
    assert equal(values, ref_values)
    assert (state, raw) == (ref_state, ref_raw)


def rows_equal(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(a, b))


def clicks_equal(a, b):
    return rows_equal([a[det] for det in Detector], [b[det] for det in Detector])


@settings(max_examples=60, deadline=None)
@given(block=BLOCKS, model=st.sampled_from(list(RoutingModel)), n=PHOTON_NUMBERS)
def test_route_counts_independent_of_block_size(block, model, n):
    n = np.array(n, dtype=np.int64)
    assert_block_invariant(block, lambda rng: route_counts(model, n, rng), np.array_equal)
    assert route_counts(model, n, substream(1)).dtype == np.int16


@settings(max_examples=60, deadline=None)
@given(block=BLOCKS, port1=PHOTON_NUMBERS, data=st.data())
def test_split_counts_independent_of_block_size(block, port1, data):
    port1 = np.array(port1, dtype=np.int16)
    port2 = np.array(data.draw(st.lists(PHOTON_NUMBER, min_size=port1.size, max_size=port1.size)), dtype=np.int16)
    # split_counts takes its port row over, so each split gets its own copy
    assert_block_invariant(block, lambda rng: split_ports(port1.copy(), port2.copy(), rng), rows_equal)
    a1, a2, b1, b2 = split_ports(port1.copy(), port2.copy(), substream(2))
    assert np.array_equal(a1 + a2, port1) and np.array_equal(b1 + b2, port2)
    assert {row.dtype for row in (a1, a2, b1, b2)} == {np.dtype(np.int16)}


@settings(max_examples=60, deadline=None)
@given(
    block=BLOCKS,
    m=st.integers(0, 400),
    efficiency=st.sampled_from([0.3, 1.0]),
    jitter=st.sampled_from([0.0, 350.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_detect_counts_independent_of_block_size(block, m, efficiency, jitter, seed):
    source = np.random.default_rng(seed)
    counts = source.integers(0, 3, size=(4, m)).astype(np.int16)
    counts[:, source.random(m) < 0.05] = 70
    times = np.cumsum(source.integers(1, 50_000, size=m))
    cfg = DetectorConfig(efficiency=efficiency, jitter_sigma_ps=jitter)
    assert_block_invariant(block, lambda rng: detect_counts(dict(zip(Detector, counts)), times.__getitem__, cfg, rng), clicks_equal)


@settings(max_examples=10, deadline=None)
@given(block=BLOCKS, seed=st.integers(0, 2**32 - 1), slots=st.integers(1, 3000))
def test_simulate_chunk_independent_of_block_size(block, seed, slots):
    # a partial chunk at mean 1.0, where most slots are occupied
    src = SourceConfig(mean_photon_number=1.0, slot_rate=1e6, duration=slots * 1e-6, seed=seed)
    task = (src, DetectorConfig(efficiency=0.6), list(RoutingModel), 0)
    results = {}
    for b in (block, ONE_BLOCK):
        with mock.patch.object(photon_source, "_SCAN_BLOCK", b):
            results[b] = _simulate_chunk(*task)
    for (clicks, fallback), (ref_clicks, ref_fallback) in zip(results[block], results[ONE_BLOCK]):
        assert clicks_equal(clicks, ref_clicks) and fallback == ref_fallback


def bright_chunk(models):
    # one full chunk at mean 1.0: 2.65e6 occupied slots, 21 MB per int64 row
    src = SourceConfig(mean_photon_number=1.0, slot_rate=1.0, duration=float(CHUNK_SLOTS), seed=7)
    return (src, DetectorConfig(efficiency=0.5), models, 0)


def test_bright_chunk_holds_no_full_length_int64_temporaries():
    # with full-length int64 count rows and draws the chunk peaked at
    # ~217 MiB; with block-wise draws into narrow rows it takes ~60 MiB
    assert traced_peak(_simulate_chunk, *bright_chunk([RoutingModel.CLASSICAL])) < 160 * 2**20


@pytest.mark.parametrize(
    "models, bound_mib",
    # int32 rows, int64 source lists and a full-length int64 slot-time array
    # peaked at ~105 and ~172 MiB; int16 rows and int32 offsets, with slot
    # times for fired slots only, took ~60 and ~96 MiB, and int32 fired-slot
    # indices ~56 and ~96 MiB; splitting and detecting port by port, each
    # count row freed once detected, ~33 and ~62 MiB. Source rows allocated
    # once with uint16 segment offsets, splits that take their port row
    # over and fired pieces timed unjoined take ~25.2 and ~54.7 MiB; the
    # bounds leave ~10% over that
    [([RoutingModel.CLASSICAL], 28), (list(RoutingModel), 60)],
)
def test_bright_chunk_peak_with_narrow_rows(models, bound_mib):
    assert traced_peak(_simulate_chunk, *bright_chunk(models)) < bound_mib * 2**20


def test_bright_one_chunk_simulate_peak():
    # a whole acquisition of one full chunk at mean 1.0, click side included:
    # ~32.8 MiB traced with int32 source offsets joined from block pieces,
    # three-row splits and joined fired pieces, ~25.2 MiB without; the bound
    # leaves ~10% over that
    src, detectors, [model], _ = bright_chunk([RoutingModel.CLASSICAL])
    config = SimConfig(replace(src, slot_rate=CHUNK_SLOTS / 0.05, duration=0.05), detectors, model, 5_000)
    assert slot_count(config.source) == CHUNK_SLOTS
    assert traced_peak(simulate, config) < 28 * 2**20


@pytest.mark.parametrize("model", list(RoutingModel))
def test_route_counts_rejects_photon_numbers_beyond_int16(model):
    top = np.array([2**15 - 1, 2], dtype=np.int64)
    port1 = route_counts(model, top, substream(3))
    assert port1.dtype == np.int16 and 0 <= port1[0] <= 2**15 - 1
    for bad in (2**15, -1):
        with pytest.raises(ValueError, match="photon numbers must be in"):
            route_counts(model, np.array([bad, 2], dtype=np.int64), substream(3))


def test_split_counts_rejects_photon_numbers_beyond_int16():
    top = np.array([2**15 - 1], dtype=np.int64)
    a1, a2, b1, b2 = split_ports(top, top, substream(4))
    assert a1 + a2 == top and b1 + b2 == top
    over = np.array([2**15], dtype=np.int64)
    for port1, port2 in ((over, top), (top, over)):
        with pytest.raises(ValueError, match="photon numbers must be in"):
            split_ports(port1, port2, substream(4))


def test_detect_counts_rejects_photon_numbers_beyond_int16():
    # the click probability is tabulated up to the largest count of the chunk
    counts = np.zeros((4, 3), dtype=np.int64)
    counts[Detector.B2, 1] = 2**15 - 1
    times = np.arange(3, dtype=np.int64)
    assert detect_counts(dict(zip(Detector, counts)), times.__getitem__, DetectorConfig(efficiency=1.0), substream(4))[Detector.B2].size == 1
    counts[Detector.B2, 1] = 2**15
    with pytest.raises(ValueError, match="photon numbers must be in"):
        detect_counts(dict(zip(Detector, counts)), times.__getitem__, DetectorConfig(efficiency=1.0), substream(4))
    # a negative count is rejected too, not drawn as a dark slot
    counts[Detector.B2, 1] = 0
    counts[Detector.A2] = [-3, 2, -1]
    with pytest.raises(ValueError, match="photon numbers must be in"):
        detect_counts(dict(zip(Detector, counts)), times.__getitem__, DetectorConfig(efficiency=1.0), substream(4))


# 2.5e11 slots/s and 2^53 ps: ~2.25e15 slots, ~5.4e8 chunks
FAST_SOURCE = SourceConfig(mean_photon_number=0.3, slot_rate=2.5e11, duration=2**53 / 1e12 * (1 - 1e-9), seed=5)


@pytest.mark.parametrize("chunk", [510, 511, 512, num_chunks(FAST_SOURCE) - 1])
def test_slot_clock_is_exact_past_int32_slot_indices(chunk):
    # chunk 511 ends at slot 2^31 - 1; from chunk 512 on start itself is
    # beyond int32, so the uint16 segment offsets must be widened to int64
    # slot indices. With efficiency 1 and no jitter every detector that gets
    # a photon clicks at its slot's nominal time
    detectors = DetectorConfig(efficiency=1.0, jitter_sigma_ps=0.0)
    [(clicks, _)] = _simulate_chunk(FAST_SOURCE, detectors, [RoutingModel.CLASSICAL], chunk)
    slots, k = occupied_slots(FAST_SOURCE, chunk)
    route_rng = substream(FAST_SOURCE.seed, STREAM_ROUTING, chunk)
    port1 = route_counts(RoutingModel.CLASSICAL, k, route_rng)
    counts = split_ports(port1, k - port1, route_rng)
    nominal = np.rint(slots.indices() / FAST_SOURCE.slot_rate * 1e12).astype(np.int64)
    assert nominal[-1] < 2**53 and (chunk < 512 or slots.start >= 2**31)
    for det in Detector:
        assert np.array_equal(clicks[det], nominal[counts[det] > 0])
    assert sum(c.size for c in clicks.values()) >= k.size
