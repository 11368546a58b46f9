import math

import numpy as np
import pytest
from scipy import stats

from bunchsim.photon_source import (
    CHUNK_SLOTS,
    SourceConfig,
    num_chunks,
    occupied_slots,
    poisson_cdf_table,
    slot_count,
    substream,
)
from oracles import dense_chunk, dense_stream


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
    _, offsets, n = occupied_slots(cfg, 0)
    assert offsets.size == 0 and n.size == 0
    _, dense = dense_chunk(cfg, 0)
    assert dense.size == slot_count(cfg)
    assert not dense.any()


@pytest.mark.parametrize("mean", [0.0, 0.044, 1.0, 5.0])
@pytest.mark.parametrize("duration", [0.2, 5.0])  # one partial chunk; a full and a partial one
def test_occupied_slots_equal_dense_inversion(mean, duration):
    cfg = small_config(mean_photon_number=mean, duration=duration)
    for chunk in range(num_chunks(cfg)):
        start, offsets, n = occupied_slots(cfg, chunk)
        dense_start, dense = dense_chunk(cfg, chunk)
        assert start == dense_start
        assert np.array_equal(offsets, np.flatnonzero(dense))
        assert np.array_equal(n, dense[offsets])
        assert n.dtype == np.int64


def test_sampled_counts_match_poisson_pmf():
    cfg = small_config(mean_photon_number=0.1, duration=0.2)  # 200k slots
    _, offsets, n = occupied_slots(cfg, 0)
    total = slot_count(cfg)
    for k in range(4):
        p = stats.poisson.pmf(k, 0.1)
        observed = total - offsets.size if k == 0 else int(np.count_nonzero(n == k))
        sigma = math.sqrt(total * p * (1 - p))
        assert abs(observed - total * p) <= 4 * sigma


def test_chunks_concatenate_to_stream():
    cfg = small_config(duration=6.0, slot_rate=1e6)  # > 1 chunk
    assert num_chunks(cfg) == 2
    parts = [occupied_slots(cfg, i) for i in range(2)]
    assert parts[0][0] == 0 and parts[1][0] == CHUNK_SLOTS
    assert parts[0][1].max() < CHUNK_SLOTS
    assert parts[1][1].max() < slot_count(cfg) - CHUNK_SLOTS
    # global slot indices and counts agree with the dense stream of the run
    dense = dense_stream(cfg)
    assert dense.size == slot_count(cfg)
    index = np.concatenate([start + offsets for start, offsets, _ in parts])
    assert np.array_equal(index, np.flatnonzero(dense))
    assert np.array_equal(np.concatenate([n for _, _, n in parts]), dense[index])


def test_chunk_content_independent_of_other_chunks():
    cfg = small_config(duration=6.0, slot_rate=1e6)
    fresh = occupied_slots(cfg, 1)  # computed without ever touching chunk 0
    occupied_slots(cfg, 0)
    again = occupied_slots(cfg, 1)
    assert np.array_equal(fresh[1], again[1]) and np.array_equal(fresh[2], again[2])


def test_slot_count_and_chunk_bounds():
    cfg = small_config(slot_rate=12345.0, duration=1.0)
    assert slot_count(cfg) == 12345
    cfg = small_config(slot_rate=1e6, duration=2.5e-6)
    assert slot_count(cfg) == 2  # floor
    with pytest.raises(IndexError):
        occupied_slots(small_config(), 99)


def test_overflowing_slot_count_is_an_error():
    cfg = small_config(slot_rate=1e30, duration=1e30)
    with pytest.raises(OverflowError):
        slot_count(cfg)


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
