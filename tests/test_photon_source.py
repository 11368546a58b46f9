import math
import timeit
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bunchsim import photon_source
from bunchsim.photon_source import (
    CHUNK_SLOTS,
    MAX_MEAN_PHOTON_NUMBER,
    SourceConfig,
    _cdf_edges,
    binomial_half,
    num_chunks,
    occupied_slots,
    poisson_cdf_table,
    slot_count,
    substream,
)
from oracles import Words, binomial_inversion, dense_chunk, dense_stream, traced_peak


def small_config(**kw):
    base = dict(mean_photon_number=0.05, slot_rate=1e6, duration=0.01, seed=123)
    base.update(kw)
    return SourceConfig(**base)


def test_substream_reproducible_and_independent():
    a = substream(99, 0, 4).random(16)
    b = substream(99, 0, 4).random(16)
    assert np.array_equal(a, b)
    c = substream(99, 0, 5).random(16)
    d = substream(99, 1, 4).random(16)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_poisson_table_matches_scipy():
    for mean in (0.0, 0.022, 0.044, 0.5, 3.0):
        table = poisson_cdf_table(mean)
        oracle = stats.poisson.cdf(np.arange(len(table)), mean)
        assert np.max(np.abs(table - oracle)) < 1e-13


def test_zero_mean_yields_empty_slots():
    cfg = small_config(mean_photon_number=0.0)
    slots, n = occupied_slots(cfg, 0)
    assert slots.offsets.size == 0 and n.size == 0
    _, dense = dense_chunk(cfg, 0)
    assert dense.size == slot_count(cfg)
    assert not dense.any()


@pytest.mark.parametrize("mean", [0.0, 0.044, 1.0, 5.0])
@pytest.mark.parametrize("duration", [0.2, 5.0])  # one partial chunk; a full and a partial one
def test_occupied_slots_equal_dense_inversion(mean, duration):
    cfg = small_config(mean_photon_number=mean, duration=duration)
    for chunk in range(num_chunks(cfg)):
        slots, n = occupied_slots(cfg, chunk)
        dense_start, dense = dense_chunk(cfg, chunk)
        assert slots.start == dense_start
        offsets = slots.indices() - dense_start
        assert np.array_equal(offsets, np.flatnonzero(dense))
        assert np.array_equal(n, dense[offsets])
        assert n.dtype == np.int16


@settings(max_examples=40, deadline=None)
@given(
    block=st.sampled_from([1, 3, 1000, 1 << 16, CHUNK_SLOTS + 1]),
    mean=st.sampled_from([0.0, 1e-300, 0.044, 1.0, 5.0, 700.0]),
    seed=st.integers(0, 2**32 - 1),
    tail=st.integers(1, 3000),
    full=st.booleans(),
)
def test_occupied_slots_match_dense_oracle(block, mean, seed, tail, full):
    # a full chunk followed by a partial one, or a lone partial chunk; the
    # one- and three-word blocks scan only partial chunks, to stay fast.
    # At mean 1e-300 the CDF table is [1.0], which no slot reaches.
    total = CHUNK_SLOTS + tail if full and block >= 1000 else tail
    cfg = SourceConfig(mean_photon_number=mean, slot_rate=1.0, duration=float(total), seed=seed)
    with mock.patch.object(photon_source, "_SCAN_BLOCK", block):
        parts = [occupied_slots(cfg, chunk) for chunk in range(num_chunks(cfg))]
    for chunk, (slots, n) in enumerate(parts):
        dense_start, dense = dense_chunk(cfg, chunk)
        assert slots.start == dense_start
        assert slots.offsets.dtype == np.uint16 and n.dtype == np.int16
        index = slots.indices()
        assert index.dtype == np.int64
        assert np.array_equal(index, dense_start + np.flatnonzero(dense))
        assert np.array_equal(n, dense[index - dense_start])


def test_cdf_edges_are_exact_at_the_boundary():
    # u = (w >> 11) * 2^-53 is the uniform Generator.random makes of word w
    special = [0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]
    cdf = special + np.random.default_rng(5).random(200).tolist()
    top = 2**64 - 1
    for c in cdf:
        edges = _cdf_edges(np.array([c]))
        assert edges.dtype == np.uint64 and edges.size <= 1
        if edges.size == 0:
            # no u < 1 reaches c: every word, the largest included, is below it
            assert c == 1.0 and (top >> 11) * 2.0**-53 < c
            continue
        t = int(edges[0])
        for w in (t - 1, t, t + 1, 0, top):
            if 0 <= w <= top:
                assert (w >= t) == ((w >> 11) * 2.0**-53 >= c), (c, w)


def test_words_on_the_edges_invert_like_uniforms():
    # words one below, on and one above every edge: inversion of the
    # uniform (w >> 11) * 2^-53 through the float table decides each slot
    table = poisson_cdf_table(1.0)
    edges = _cdf_edges(table)
    words = np.concatenate([edges - np.uint64(1), edges, edges + np.uint64(1)])
    cfg = small_config(mean_photon_number=1.0, slot_rate=1.0, duration=float(words.size))
    with mock.patch.object(photon_source, "substream", lambda *path: Words(words)):
        slots, n = occupied_slots(cfg, 0)
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    dense = np.searchsorted(table, u, side="right")
    assert np.array_equal(slots.indices(), np.flatnonzero(dense))
    assert np.array_equal(n, dense[slots.indices()])


@pytest.mark.parametrize("block", [1000, 1 << 16, CHUNK_SLOTS + 1])
def test_offsets_place_slots_across_segment_boundaries(block):
    # occupied slots at the last offset of segment 0, the first of segment 1
    # and the last of segment 1, in the second chunk, whatever the scan block
    table = poisson_cdf_table(1.0)
    m = 3 << 16
    words = np.zeros(m, dtype=np.uint64)  # 0 is below every edge: an empty slot
    words[[65535, 65536, 131071]] = _cdf_edges(table)[[0, 1, 5]]
    cfg = small_config(mean_photon_number=1.0, slot_rate=1.0, duration=float(CHUNK_SLOTS + m))
    with mock.patch.object(photon_source, "substream", lambda *path: Words(words)):
        with mock.patch.object(photon_source, "_SCAN_BLOCK", block):
            slots, n = occupied_slots(cfg, 1)
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    dense = np.searchsorted(table, u, side="right")
    assert slots.offsets.tolist() == [65535, 0, 65535]
    assert slots.segment_ends.tolist() == [1, 3, 3]
    assert np.array_equal(slots.indices(), CHUNK_SLOTS + np.flatnonzero(dense))
    assert np.array_equal(slots.indices(np.array([0, 2])), CHUNK_SLOTS + np.array([65535, 131071]))
    assert n.tolist() == [1, 2, 6] and np.array_equal(n, dense[dense > 0])


def test_rows_grow_past_the_expected_occupancy(monkeypatch):
    # allocated 10 standard deviations below the mean occupancy, the rows
    # must grow, and still equal the dense inversion, cut to size
    monkeypatch.setattr(photon_source, "_OCCUPANCY_SIGMAS", -10.0)
    monkeypatch.setattr(photon_source, "_SCAN_BLOCK", 1000)
    cfg = small_config(mean_photon_number=1.0, slot_rate=1.0, duration=200_000.0)
    slots, n = occupied_slots(cfg, 0)
    _, dense = dense_chunk(cfg, 0)
    assert np.array_equal(slots.indices(), np.flatnonzero(dense))
    assert np.array_equal(n, dense[dense > 0])
    assert slots.offsets.base is None and n.base is None


def same_draws(got, rng, path, n):
    """binomial_half's row and rng against rng.binomial(n, 0.5) on substream(*path) afresh."""
    twin = substream(*path)
    want = twin.binomial(n, 0.5)
    assert got.dtype == np.int16 and np.array_equal(got, want)
    assert str(rng.bit_generator.state) == str(twin.bit_generator.state)
    assert rng.bit_generator.random_raw() == twin.bit_generator.random_raw()


@settings(max_examples=80, deadline=None)
@given(
    head=st.lists(st.one_of(st.integers(0, 60), st.integers(61, 500)), max_size=40),
    size=st.integers(0, (1 << 16) + 3),
    top=st.sampled_from([1, 2, 5, 20, 60, 500]),
    zeros=st.booleans(),
    dtype=st.sampled_from([np.int16, np.int64]),
    seed=st.integers(0, 2**64 - 1),
)
def test_binomial_half_equals_numpy(head, size, top, zeros, dtype, seed):
    # n from {0..60} (inversion, n = 0 draws nothing) and {61..500} (BTPE),
    # in rows of any length: values, dtype, generator state and next word
    bulk = np.random.default_rng(seed).integers(0 if zeros else 1, top + 1, size=size)
    n = np.concatenate([head, bulk]).astype(dtype)
    rng = substream(seed, 1)
    same_draws(binomial_half(n, rng), rng, (seed, 1), n)


def inversion_edges(n):
    """Per x in 1..n + 1, the least 53-bit m whose word m << 11 gives X >= x, redraws included.

    The loop is monotone in U, so each is one edge. The walk starts from
    the exact binomial CDF and ends where numpy's float loop (the oracle)
    changes its answer.
    """

    def reaches(m, x):
        got = binomial_inversion(n, m << 11)
        return got == "redraw" or got >= x

    edges, below = [], 0
    for x in range(1, n + 2):
        below += math.comb(n, x - 1)
        m = min(-(-below * 2**53 // 2**n), 2**53 - 1)
        while m > 0 and reaches(m - 1, x):
            m -= 1
        while m < 2**53 and not reaches(m, x):
            m += 1
        edges.append(m)
    return edges


@pytest.mark.parametrize("n", range(1, 61))
def test_words_on_the_inversion_edges_replay_numpy(n):
    # words one below, on and one above every edge of numpy's loop, fed to
    # the kernel in one row; the few words that make numpy redraw are left
    # to the fallback test below
    words = sorted({w for m in inversion_edges(n) for w in ((m << 11) - 1, m << 11, (m << 11) + 1) if 0 <= w < 2**64})
    want = [binomial_inversion(n, w) for w in words]
    kept = [i for i, x in enumerate(want) if x != "redraw"]
    stand_in = Words(np.array(words, dtype=np.uint64)[kept])
    got = binomial_half(np.full(len(kept), n, dtype=np.int16), stand_in)
    assert got.tolist() == [want[i] for i in kept] and stand_in.left == 0


class _CountingBinomial:
    """A generator whose binomial calls are counted."""

    def __init__(self, rng):
        self.rng, self.bit_generator, self.calls = rng, rng.bit_generator, 0

    def binomial(self, n, p):
        self.calls += 1
        return self.rng.binomial(n, p)


def test_a_loop_past_n_falls_back_to_numpy():
    # with P(X = 2 | n = 2) patched to 0, every U above 3/4 runs past n = 2,
    # where numpy draws another word: the row is redrawn by numpy from the
    # state saved before it
    px = photon_source._PX.copy()
    px[2, 2] = 0.0
    n = np.array([1, 0, 3] + [2] * 200, dtype=np.int16)
    rng = substream(8, 2)
    counting = _CountingBinomial(rng)
    with mock.patch.object(photon_source, "_PX", px):
        got = binomial_half(n, counting)
    assert counting.calls == 1
    same_draws(got, rng, (8, 2), n)


def test_inversion_table_is_cheap_to_build():
    # it is built at import, on every process start
    assert min(timeit.repeat(photon_source._inversion_table, number=1, repeat=5)) < 5e-3


def test_low_mean_chunk_scans_in_small_blocks():
    # one full chunk at the block-2 mean: no per-slot array (2^22 doubles
    # are 32 MB) may be built, only the occupied slots' ~4% and one block
    cfg = small_config(mean_photon_number=0.044, slot_rate=1.0, duration=float(CHUNK_SLOTS))
    assert traced_peak(occupied_slots, cfg, 0) < 16 * 2**20


def test_bright_chunk_source_holds_narrow_rows():
    # one full chunk at mean 1.0, 2.65e6 occupied slots: uint16 segment
    # offsets and int16 photon numbers, each row allocated once for the
    # expected occupancy, take ~11.6 MiB, and the bound leaves ~10% over
    # that; int32 offsets per block and concatenated took ~26 MiB, the int64
    # lists and their concatenations ~82 MiB
    cfg = small_config(mean_photon_number=1.0, slot_rate=1.0, duration=float(CHUNK_SLOTS), seed=7)
    assert traced_peak(occupied_slots, cfg, 0) < 13 * 2**20


def test_photon_numbers_fit_int16_count_rows():
    # a photon number is an index into the CDF table, so every table fits
    assert poisson_cdf_table(MAX_MEAN_PHOTON_NUMBER).size < 2**15


def test_sampled_counts_match_poisson_pmf():
    cfg = small_config(mean_photon_number=0.1, duration=0.2)  # 200k slots
    _, n = occupied_slots(cfg, 0)
    total = slot_count(cfg)
    for k in range(4):
        p = stats.poisson.pmf(k, 0.1)
        observed = total - n.size if k == 0 else int(np.count_nonzero(n == k))
        sigma = math.sqrt(total * p * (1 - p))
        assert abs(observed - total * p) <= 4 * sigma


def test_chunks_concatenate_to_stream():
    cfg = small_config(duration=6.0, slot_rate=1e6)  # > 1 chunk
    assert num_chunks(cfg) == 2
    parts = [occupied_slots(cfg, i) for i in range(2)]
    assert parts[0][0].start == 0 and parts[1][0].start == CHUNK_SLOTS
    assert parts[0][0].indices().max() < CHUNK_SLOTS
    assert CHUNK_SLOTS <= parts[1][0].indices().min() and parts[1][0].indices().max() < slot_count(cfg)
    # global slot indices and counts agree with the dense stream of the run
    dense = dense_stream(cfg)
    assert dense.size == slot_count(cfg)
    index = np.concatenate([slots.indices() for slots, _ in parts])
    assert np.array_equal(index, np.flatnonzero(dense))
    assert np.array_equal(np.concatenate([n for _, n in parts]), dense[index])


def test_chunk_content_independent_of_other_chunks():
    cfg = small_config(duration=6.0, slot_rate=1e6)
    fresh = occupied_slots(cfg, 1)  # computed without ever touching chunk 0
    occupied_slots(cfg, 0)
    again = occupied_slots(cfg, 1)
    assert np.array_equal(fresh[0].indices(), again[0].indices()) and np.array_equal(fresh[1], again[1])


def test_slot_count_and_chunk_bounds():
    cfg = small_config(slot_rate=12345.0, duration=1.0)
    assert slot_count(cfg) == 12345
    cfg = small_config(slot_rate=1e6, duration=2.5e-6)
    assert slot_count(cfg) == 2  # floor
    with pytest.raises(IndexError):
        occupied_slots(small_config(), 99)


def test_overflowing_slot_count_is_an_error():
    # checked when the config is built, before any slot is counted
    with pytest.raises(ValueError, match="acquisition_s \\* slot_rate must not exceed 2\\^53 slots"):
        small_config(slot_rate=1e30, duration=1e30)


@pytest.mark.parametrize(
    "field,value",
    [
        ("mean_photon_number", -0.1),
        ("slot_rate", 0.0),
        ("duration", -1.0),
        ("seed", -1),
    ],
)
def test_config_validation(field, value):
    with pytest.raises(ValueError):
        small_config(**{field: value})


def test_mean_photon_number_limit():
    # exp(-mean) must stay a normal double, or the CDF table breaks silently
    assert small_config(mean_photon_number=700.0).mean_photon_number == 700.0
    for mean in (709.0, 1e3, math.inf, math.nan):
        with pytest.raises(ValueError, match="mean_photon_number"):
            small_config(mean_photon_number=mean)
