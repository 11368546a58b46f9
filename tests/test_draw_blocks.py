"""The per-chunk model stage draws in photon_source.draw_blocks.

Routing, splitting and detection must give the same values, and leave their
generator in the same state, for any block size: a block at least as long as
the input is one whole-array call.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bunchsim import photon_source
from bunchsim.detector_bank import Detector, DetectorConfig, detect_counts, split_counts
from bunchsim.photon_source import CHUNK_SLOTS, SourceConfig, substream
from bunchsim.routing_models import RoutingModel, route_counts
from bunchsim.simulate import _simulate_chunk

ONE_BLOCK = CHUNK_SLOTS + 1
BLOCKS = st.sampled_from([1, 3, 1000, 1 << 16, ONE_BLOCK])
# n >= 61 takes binomial's BTPE branch at p = 1/2; 0 and 2 take the
# phase-basis fix-up and the zero-draw case
PHOTON_NUMBER = st.one_of(st.integers(0, 4), st.integers(61, 500))
PHOTON_NUMBERS = st.lists(PHOTON_NUMBER, max_size=300)


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
    assert route_counts(model, n, substream(1)).dtype == np.int32


@settings(max_examples=60, deadline=None)
@given(block=BLOCKS, port1=PHOTON_NUMBERS, data=st.data())
def test_split_counts_independent_of_block_size(block, port1, data):
    port1 = np.array(port1, dtype=np.int32)
    port2 = np.array(data.draw(st.lists(PHOTON_NUMBER, min_size=port1.size, max_size=port1.size)), dtype=np.int32)
    assert_block_invariant(block, lambda rng: split_counts(port1, port2, rng), rows_equal)
    a1, a2, b1, b2 = split_counts(port1, port2, substream(2))
    assert np.array_equal(a1 + a2, port1) and np.array_equal(b1 + b2, port2)
    assert {row.dtype for row in (a1, a2, b1, b2)} == {np.dtype(np.int32)}


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
    counts = source.integers(0, 3, size=(4, m)).astype(np.int32)
    counts[:, source.random(m) < 0.05] = 70
    times = np.cumsum(source.integers(1, 50_000, size=m))
    cfg = DetectorConfig(efficiency=efficiency, jitter_sigma_ps=jitter)
    assert_block_invariant(block, lambda rng: detect_counts(counts, times, cfg, rng), clicks_equal)


@settings(max_examples=10, deadline=None)
@given(block=BLOCKS, seed=st.integers(0, 2**32 - 1), slots=st.integers(1, 3000))
def test_simulate_chunk_independent_of_block_size(block, seed, slots):
    # a partial chunk at mean 1.0, where most slots are occupied
    src = SourceConfig(mean_photon_number=1.0, slot_rate=1e6, duration=slots * 1e-6, seed=seed)
    task = (src, DetectorConfig(efficiency=0.6), list(RoutingModel), 0)
    results = {}
    for b in (block, ONE_BLOCK):
        with mock.patch.object(photon_source, "_SCAN_BLOCK", b):
            results[b] = _simulate_chunk(task)
    for (clicks, fallback), (ref_clicks, ref_fallback) in zip(results[block], results[ONE_BLOCK]):
        assert clicks_equal(clicks, ref_clicks) and fallback == ref_fallback


def test_bright_chunk_holds_no_full_length_int64_temporaries():
    # one full chunk at mean 1.0: 2.65e6 occupied slots, 21 MB per int64
    # row. With full-length int64 count rows and draws the chunk peaked at
    # ~217 MiB; with int32 rows and block-wise draws it takes ~105 MiB
    src = SourceConfig(mean_photon_number=1.0, slot_rate=1.0, duration=float(CHUNK_SLOTS), seed=7)
    task = (src, DetectorConfig(efficiency=0.5), [RoutingModel.CLASSICAL], 0)
    tracemalloc.start()
    try:
        _simulate_chunk(task)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 160 * 2**20
