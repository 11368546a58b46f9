import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from bunchsim import coincidence_unit
from bunchsim.coincidence_unit import (
    CROSS_SIDE_PAIRS,
    PAIR_KEYS,
    SAME_SIDE_PAIRS,
    TRIPLE_KEYS,
    CcuConfig,
    accumulate,
    counter_name,
    pair_coincidences,
    tally_from_csv,
    tally_to_csv,
    tally_to_json,
    triple_coincidences,
)
from bunchsim.coincidence_unit import _greedy_pairs, _greedy_triples, _with_neighbour
from bunchsim.detector_bank import Detector
from oracles import streams_from_events


def optimal_pairs(x, y, window):
    """Maximum bipartite matching oracle for the pair counter."""
    if len(x) == 0 or len(y) == 0:
        return 0
    adj = np.abs(np.asarray(x)[:, None] - np.asarray(y)[None, :]) <= window
    match = maximum_bipartite_matching(csr_matrix(adj), perm_type="column")
    return int(np.count_nonzero(match != -1))


def optimal_triples(x, y, z, spread):
    """Exhaustive maximum disjoint-triples oracle (tiny instances only)."""
    feas = [
        (i, j, k)
        for i in range(len(x))
        for j in range(len(y))
        for k in range(len(z))
        if max(x[i], y[j], z[k]) - min(x[i], y[j], z[k]) <= spread
    ]
    best = 0

    def rec(idx, ux, uy, uz, n):
        nonlocal best
        best = max(best, n)
        for t in range(idx, len(feas)):
            i, j, k = feas[t]
            if i in ux or j in uy or k in uz:
                continue
            rec(t + 1, ux | {i}, uy | {j}, uz | {k}, n + 1)

    rec(0, frozenset(), frozenset(), frozenset(), 0)
    return best


def random_stream(rng, size, span, step=1):
    return np.sort(rng.integers(0, span, size=size).astype(np.int64) * step)


# --- window semantics --------------------------------------------------------


def test_pair_window_is_inclusive():
    x = np.array([100_000], dtype=np.int64)
    assert pair_coincidences(x, x + 5_000, 5_000) == 1
    assert pair_coincidences(x, x + 5_001, 5_000) == 0
    assert pair_coincidences(x, x - 5_000, 5_000) == 1


def test_triple_spread_is_twice_the_window():
    x = np.array([0], dtype=np.int64)
    y = np.array([5_000], dtype=np.int64)
    z = np.array([10_000], dtype=np.int64)
    assert triple_coincidences(x, y, z, 5_000) == 1  # max-min = 10_000 = 2w
    assert triple_coincidences(x, y, z + 1, 5_000) == 0


def test_public_counters_accept_any_origin_within_the_key_range():
    # the streams are shifted to start at 0 before the merge keys 4 * t + detector
    far = np.array([-(2**62)], dtype=np.int64)
    assert pair_coincidences(far, far + 5, 5) == 1
    assert triple_coincidences(far, far + 5, far + 10, 5) == 1
    with pytest.raises(ValueError, match="span"):
        pair_coincidences(np.array([0], dtype=np.int64), np.array([2**61], dtype=np.int64), 5)


def test_each_event_used_once():
    x = np.array([0, 10], dtype=np.int64)
    y = np.array([5], dtype=np.int64)
    assert pair_coincidences(x, y, 1_000) == 1


def test_pair_count_symmetric():
    rng = np.random.default_rng(21)
    for _ in range(100):
        x = random_stream(rng, int(rng.integers(0, 40)), 500)
        y = random_stream(rng, int(rng.integers(0, 40)), 500)
        w = int(rng.integers(1, 60))
        assert pair_coincidences(x, y, w) == pair_coincidences(y, x, w)


def test_pair_count_monotone_in_window():
    rng = np.random.default_rng(22)
    x = random_stream(rng, 300, 20_000)
    y = random_stream(rng, 280, 20_000)
    counts = [pair_coincidences(x, y, w) for w in (1, 10, 100, 1_000, 10_000)]
    assert counts == sorted(counts)


# --- oracle equivalence ------------------------------------------------------


def test_greedy_pairs_equal_maximum_matching():
    rng = np.random.default_rng(23)
    for _ in range(300):
        x = random_stream(rng, int(rng.integers(0, 60)), 800)
        y = random_stream(rng, int(rng.integers(0, 60)), 800)
        w = int(rng.integers(1, 50))
        assert pair_coincidences(x, y, w) == optimal_pairs(x, y, w)


def test_greedy_triples_equal_exhaustive_maximum():
    rng = np.random.default_rng(24)
    for _ in range(250):
        sizes = rng.integers(0, 6, size=3)
        x, y, z = (random_stream(rng, int(s), 60) for s in sizes)
        w = int(rng.integers(1, 15))
        assert triple_coincidences(x, y, z, w) == optimal_triples(x, y, z, 2 * w)


def test_prefilter_preserves_greedy_counts():
    # the public counters drop partnerless events before matching; the raw
    # greedy walk over everything must give identical results
    rng = np.random.default_rng(25)
    for _ in range(200):
        x = random_stream(rng, int(rng.integers(0, 80)), 3_000)
        y = random_stream(rng, int(rng.integers(0, 80)), 3_000)
        z = random_stream(rng, int(rng.integers(0, 80)), 3_000)
        w = int(rng.integers(1, 100))
        assert pair_coincidences(x, y, w) == _greedy_pairs(list(x), list(y), w)
        assert triple_coincidences(x, y, z, w) == _greedy_triples(list(x), list(y), list(z), 2 * w)


@st.composite
def timelines(draw):
    """(window, four sorted streams) dense enough for many coincidences.

    Streams share some timestamps (equal times on different detectors), may
    be empty, and pass a dead-time filter shorter than the triple spread.
    """
    window = draw(st.integers(1, 10**6))
    span = draw(st.integers(0, 30)) * window
    dead = draw(st.integers(0, 2 * window - 1))
    shared = draw(st.lists(st.integers(0, span), max_size=10))
    streams = {}
    for det in Detector:
        raw = sorted([t for t in shared if draw(st.booleans())] + draw(st.lists(st.integers(0, span), max_size=12)))
        kept = []
        for t in raw:
            if not kept or t - kept[-1] >= dead:
                kept.append(t)
        streams[det] = np.asarray(kept, dtype=np.int64)
    return window, streams


@settings(max_examples=300, deadline=None)
@given(timelines())
def test_merged_prefilter_preserves_every_count(case):
    window, streams = case
    tally = accumulate(streams, CcuConfig(window_ps=window, acquisition_s=1.0))
    for x, y in PAIR_KEYS:
        raw = _greedy_pairs(streams[x].tolist(), streams[y].tolist(), window)
        assert tally.pairs[(x, y)] == raw == optimal_pairs(streams[x], streams[y], window)
    for x, y, z in TRIPLE_KEYS:
        raw = _greedy_triples(streams[x].tolist(), streams[y].tolist(), streams[z].tolist(), 2 * window)
        assert tally.triples[(x, y, z)] == raw


def assert_greedy_counts(tally, window, streams):
    for x, y in PAIR_KEYS:
        raw = _greedy_pairs(streams[x].tolist(), streams[y].tolist(), window)
        assert tally.pairs[(x, y)] == raw == optimal_pairs(streams[x], streams[y], window)
    for x, y, z in TRIPLE_KEYS:
        raw = _greedy_triples(streams[x].tolist(), streams[y].tolist(), streams[z].tolist(), 2 * window)
        assert tally.triples[(x, y, z)] == raw


@settings(max_examples=150, deadline=None)
@given(timelines(), st.integers(1, 3))
def test_cluster_counts_independent_of_block_size(case, step):
    # tiny merge blocks make clusters straddle block edges
    window, streams = case
    with mock.patch.object(coincidence_unit, "_MERGE_STEP", step):
        tally = accumulate(streams, CcuConfig(window_ps=window, acquisition_s=1.0))
    assert_greedy_counts(tally, window, streams)


def test_hard_cluster_next_to_simple_clusters():
    # w = 10: clusters split at time gaps > 20. Cluster [0, 5, 8] holds two
    # A' clicks within the window of one B' click and needs the greedy walk;
    # the clusters at 100 and 200 hold one click per detector.
    streams = {det: np.empty(0, dtype=np.int64) for det in Detector}
    streams[Detector.A1] = np.array([0, 8, 100, 200], dtype=np.int64)
    streams[Detector.B1] = np.array([5, 111, 215], dtype=np.int64)
    streams[Detector.B2] = np.array([210], dtype=np.int64)
    tally = accumulate(streams, CcuConfig(window_ps=10, acquisition_s=1.0))
    assert tally.pairs[(Detector.A1, Detector.B1)] == 1 + 0 + 0
    assert tally.pairs[(Detector.A1, Detector.B2)] == 1
    assert tally.pairs[(Detector.B1, Detector.B2)] == 1
    assert tally.triples[(Detector.A1, Detector.B1, Detector.B2)] == 1
    assert_greedy_counts(tally, 10, streams)


def decoded(keys):
    """Per-detector times of merge keys 4 * t + detector."""
    return {det: keys[keys & 3 == det] >> 2 for det in Detector}


@settings(max_examples=150, deadline=None)
@given(timelines())
def test_merged_prefilter_keeps_every_partnered_event(case):
    window, streams = case
    keys = _with_neighbour(streams, 2 * window)
    assert np.all(np.diff(keys) >= 0)
    kept = decoded(keys)
    for det in Detector:
        others = np.concatenate([streams[d] for d in Detector if d != det])
        partnered = [t for t in streams[det].tolist() if np.any(np.abs(others - t) <= 2 * window)]
        assert np.all(np.diff(kept[det]) >= 0)
        assert np.isin(partnered, kept[det]).all()
        assert np.isin(kept[det], streams[det]).all()


@settings(max_examples=150, deadline=None)
@given(timelines(), st.integers(1, 3))
def test_merged_prefilter_independent_of_block_size(case, step):
    # real runs span many merge blocks; tiny blocks put block edges between
    # close events of these small streams
    window, streams = case
    whole = _with_neighbour(streams, 2 * window)
    with mock.patch.object(coincidence_unit, "_MERGE_STEP", step):
        blocked = _with_neighbour(streams, 2 * window)
    assert blocked.tolist() == whole.tolist()


def test_merged_prefilter_drops_isolated_events():
    streams = {det: np.empty(0, dtype=np.int64) for det in Detector}
    streams[Detector.A1] = np.array([0, 1_000_000], dtype=np.int64)
    streams[Detector.B2] = np.array([10, 2_000_000], dtype=np.int64)
    kept = decoded(_with_neighbour(streams, 10))
    assert kept[Detector.A1].tolist() == [0] and kept[Detector.B2].tolist() == [10]
    assert decoded(_with_neighbour(streams, 9))[Detector.A1].size == 0


# --- stream plumbing ---------------------------------------------------------


def test_streams_from_events_sorts_interleaved_input():
    rng = np.random.default_rng(26)
    events = [(Detector(int(rng.integers(0, 4))), int(rng.integers(0, 10**9))) for _ in range(500)]
    streams = streams_from_events(events)
    for det in Detector:
        mine = sorted(t for d, t in events if d == det)
        assert streams[det].tolist() == mine


def build_tally(rng, config=None):
    config = config or CcuConfig(window_ps=5_000, acquisition_s=1.0)
    acq_ps = int(config.acquisition_s * 1e12)
    streams = {
        det: np.sort(rng.integers(0, acq_ps, size=int(rng.integers(50, 200)), dtype=np.int64))
        for det in Detector
    }
    return accumulate(streams, config, metadata={"note": "synthetic"})


def test_accumulate_counts_every_channel():
    tally = build_tally(np.random.default_rng(27))
    assert set(tally.pairs) == set(PAIR_KEYS)
    assert set(tally.triples) == set(TRIPLE_KEYS)
    assert set(SAME_SIDE_PAIRS) | set(CROSS_SIDE_PAIRS) == set(PAIR_KEYS)
    assert all(v >= 0 for v in tally.pairs.values())
    names = [name for name, _, _ in tally.counters()]
    assert len(names) == 4 + 6 + 4
    assert names[0] == "single_A'" and names[4].startswith("pair_")


def test_accumulate_validates_streams():
    config = CcuConfig(window_ps=5_000, acquisition_s=1.0)
    good = {det: np.array([10, 20], dtype=np.int64) for det in Detector}
    bad_order = dict(good)
    bad_order[Detector.A1] = np.array([20, 10], dtype=np.int64)
    with pytest.raises(ValueError):
        accumulate(bad_order, config)
    # the acquisition is [0, 1e12 ps): its last picosecond counts, its end does not
    assert accumulate(good | {Detector.B2: np.array([10, 10**12 - 1])}, config).singles[Detector.B2] == 2
    with pytest.raises(ValueError, match="outside \\[0, acquisition\\)"):
        accumulate(good | {Detector.B2: np.array([10, 10**12])}, config)
    # the merged-timeline keys 4 * t + detector must fit in int64
    with pytest.raises(ValueError):
        accumulate(good, CcuConfig(window_ps=5_000, acquisition_s=2.4e6))
    far = {det: np.array([2_299_000 * 10**12 + int(det)], dtype=np.int64) for det in Detector}
    tally = accumulate(far, CcuConfig(window_ps=5_000, acquisition_s=2.3e6))
    assert set(tally.pairs.values()) == {1} and set(tally.triples.values()) == {1}


def test_csv_roundtrip_exact():
    tally = build_tally(np.random.default_rng(28))
    text = tally_to_csv(tally)
    back = tally_from_csv(text, acquisition_s=tally.acquisition_s)
    assert back.singles == tally.singles
    assert back.pairs == tally.pairs
    assert back.triples == tally.triples
    assert back.acquisition_s == tally.acquisition_s


def test_csv_parser_rejects_garbage():
    with pytest.raises(ValueError):
        tally_from_csv("nope,really\n1,2\n", acquisition_s=1.0)
    # counter missing -> incomplete table
    tally = build_tally(np.random.default_rng(29))
    lines = tally_to_csv(tally).splitlines()
    with pytest.raises(ValueError):
        tally_from_csv("\n".join(lines[:-1]) + "\n", acquisition_s=1.0)
    # a second row for one counter would silently replace the first
    with pytest.raises(ValueError, match="repeats the counter \"single_A'\""):
        tally_from_csv("\n".join([*lines, "single_A',7,1.0"]) + "\n", acquisition_s=1.0)


def test_json_report_lists_published_channels():
    tally = build_tally(np.random.default_rng(30))
    doc = json.loads(tally_to_json(tally))
    assert doc["reference_reported_pairs"] == ["A'A''", "B'B''", "A'B'", "A'B''"]
    assert len(doc["reference_reported_triples"]) == 4
    assert doc["metadata"]["note"] == "synthetic"
    assert doc["singles"]["A'"] == tally.singles[Detector.A1]


def test_counter_names():
    assert counter_name("single", Detector.A2) == "single_A''"
    assert counter_name("pair", (Detector.A1, Detector.B2)) == "pair_A'B''"
    assert counter_name("triple", TRIPLE_KEYS[0]) == "triple_A'A''B'"


def test_full_counts_on_dense_identical_streams():
    # identical streams: every event pairs up, so pairs == singles count
    t = np.arange(0, 10**7, 100_000, dtype=np.int64)
    streams = {det: t.copy() for det in Detector}
    config = CcuConfig(window_ps=5_000, acquisition_s=1.0)
    tally = accumulate(streams, config)
    assert all(v == t.size for v in tally.singles.values())
    assert all(v == t.size for v in tally.pairs.values())
    assert all(v == t.size for v in tally.triples.values())