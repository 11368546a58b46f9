import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from bunchsim import coincidence_unit
from bunchsim.coincidence_unit import (
    COUNTERS,
    CROSS_SIDE_PAIRS,
    PAIR_KEYS,
    SAME_SIDE_PAIRS,
    TRIPLE_KEYS,
    CcuConfig,
    TallyTable,
    accumulate,
    counter_name,
    counter_values,
    tally_from_csv,
    tally_to_csv,
    tally_to_json,
)
from bunchsim.coincidence_unit import _clusters, _greedy, _pieces, gap_edges
from bunchsim.detector_bank import MAX_PS, Detector
from oracles import streams_from_events, traced_peak
import oracles


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


def counted(window, *times):
    """accumulate's count over 2 or 3 streams put on the first detectors, shifted to start at 0."""
    streams = {det: np.empty(0, dtype=np.int64) for det in Detector}
    streams.update(zip(Detector, (np.asarray(t, dtype=np.int64) for t in times)))
    origin = min((int(t[0]) for t in streams.values() if t.size), default=0)
    tally = accumulate({det: t - origin for det, t in streams.items()}, CcuConfig(window_ps=window, acquisition_s=1.0))
    key = tuple(Detector)[: len(times)]
    return tally.pairs[key] if len(times) == 2 else tally.triples[key]


# --- window semantics --------------------------------------------------------


def test_pair_window_is_inclusive():
    x = np.array([100_000], dtype=np.int64)
    assert counted(5_000, x, x + 5_000) == 1
    assert counted(5_000, x, x + 5_001) == 0
    assert counted(5_000, x, x - 5_000) == 1


def test_triple_spread_is_twice_the_window():
    x = np.array([0], dtype=np.int64)
    y = np.array([5_000], dtype=np.int64)
    z = np.array([10_000], dtype=np.int64)
    assert counted(5_000, x, y, z) == 1  # max-min = 10_000 = 2w
    assert counted(5_000, x, y, z + 1) == 0


def test_each_event_used_once():
    x = np.array([0, 10], dtype=np.int64)
    y = np.array([5], dtype=np.int64)
    assert counted(1_000, x, y) == 1


def test_pair_count_symmetric():
    rng = np.random.default_rng(21)
    for _ in range(100):
        x = random_stream(rng, int(rng.integers(0, 40)), 500)
        y = random_stream(rng, int(rng.integers(0, 40)), 500)
        w = int(rng.integers(1, 60))
        assert counted(w, x, y) == counted(w, y, x)


def test_pair_count_monotone_in_window():
    rng = np.random.default_rng(22)
    x = random_stream(rng, 300, 20_000)
    y = random_stream(rng, 280, 20_000)
    counts = [counted(w, x, y) for w in (1, 10, 100, 1_000, 10_000)]
    assert counts == sorted(counts)


# --- oracle equivalence ------------------------------------------------------


def test_greedy_pairs_equal_maximum_matching():
    rng = np.random.default_rng(23)
    for _ in range(300):
        x = random_stream(rng, int(rng.integers(0, 60)), 800)
        y = random_stream(rng, int(rng.integers(0, 60)), 800)
        w = int(rng.integers(1, 50))
        assert counted(w, x, y) == _greedy([x.tolist(), y.tolist()], w) == optimal_pairs(x, y, w)


def test_greedy_triples_equal_exhaustive_maximum():
    rng = np.random.default_rng(24)
    for _ in range(250):
        sizes = rng.integers(0, 6, size=3)
        x, y, z = (random_stream(rng, int(s), 60) for s in sizes)
        w = int(rng.integers(1, 15))
        walked = _greedy([x.tolist(), y.tolist(), z.tolist()], 2 * w)
        assert counted(w, x, y, z) == walked == optimal_triples(x, y, z, 2 * w)


def test_prefilter_preserves_greedy_counts():
    # accumulate drops partnerless events and splits the walk per cluster;
    # the raw greedy walk over everything must give identical results
    rng = np.random.default_rng(25)
    for _ in range(200):
        x = random_stream(rng, int(rng.integers(0, 80)), 3_000)
        y = random_stream(rng, int(rng.integers(0, 80)), 3_000)
        z = random_stream(rng, int(rng.integers(0, 80)), 3_000)
        w = int(rng.integers(1, 100))
        assert counted(w, x, y) == _greedy([list(x), list(y)], w)
        assert counted(w, x, y, z) == _greedy([list(x), list(y), list(z)], 2 * w)


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
        raw = _greedy([streams[x].tolist(), streams[y].tolist()], window)
        assert tally.pairs[(x, y)] == raw == optimal_pairs(streams[x], streams[y], window)
    for x, y, z in TRIPLE_KEYS:
        raw = _greedy([streams[x].tolist(), streams[y].tolist(), streams[z].tolist()], 2 * window)
        assert tally.triples[(x, y, z)] == raw


def assert_greedy_counts(tally, window, streams):
    for x, y in PAIR_KEYS:
        raw = _greedy([streams[x].tolist(), streams[y].tolist()], window)
        assert tally.pairs[(x, y)] == raw == optimal_pairs(streams[x], streams[y], window)
    for x, y, z in TRIPLE_KEYS:
        raw = _greedy([streams[x].tolist(), streams[y].tolist(), streams[z].tolist()], 2 * window)
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
    keys = _clusters(streams, 2 * window).keys
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
@example(
    # B'' at 593 and B' at 2642 lie 2049 ps = 2 * window + 1 apart, a cluster
    # edge, though their merge keys lie 4 * 2 * window + 3 apart
    (1024, {det: np.array(t, dtype=np.int64) for det, t in zip(Detector, ([], [], [0, 2642], [593]))}),
    1,
)
def test_merged_prefilter_independent_of_block_size(case, step):
    # real runs count many pieces; tiny pieces cut these small streams at
    # nearly every cluster edge, and the keys kept piece by piece must be
    # those of the whole streams
    window, streams = case
    whole = _clusters(streams, 2 * window).keys
    with mock.patch.object(coincidence_unit, "_MERGE_STEP", step):
        pieces = list(_pieces(streams, CcuConfig(window_ps=window, acquisition_s=1.0)))
    assert np.concatenate([_clusters(piece, 2 * window).keys for piece in pieces]).tolist() == whole.tolist()


def test_counting_memory_follows_the_piece_not_the_stream(monkeypatch):
    # one sort and one set of clusters over the whole streams took ~10x the
    # 4-piece peak at 40 pieces
    monkeypatch.setattr(coincidence_unit, "_MERGE_STEP", 1 << 10)

    def peak(pieces):
        # a candidate cut about every 2^10 events of each stream; clicks ~30 ns
        # apart on each detector and a 500 ps window leave few coincidences to
        # walk, so the pieces' arrays set the peak
        rng = np.random.default_rng(31)
        streams = {det: np.cumsum(rng.integers(1_000, 60_000, size=pieces << 10)) for det in Detector}
        config = CcuConfig(window_ps=500, acquisition_s=1.0)
        assert len(list(_pieces(streams, config))) == pieces
        return traced_peak(accumulate, streams, config)

    assert peak(40) < 1.3 * peak(4)


def test_accumulate_holds_no_stream_length_temporary():
    # four sorted streams of 2^21 events, 64 MiB in all, made before tracing
    # starts: the pieces' arrays take ~0.83 MiB above them, where one
    # whole-stream order check (t[1:] < t[:-1]) took 2.00 MiB
    rng = np.random.default_rng(5)
    streams = {det: np.cumsum(rng.integers(1_000, 60_000, size=1 << 21)) for det in Detector}
    assert traced_peak(accumulate, streams, CcuConfig(window_ps=500, acquisition_s=1.0)) < 1.5 * 2**20


@st.composite
def edge_cases(draw):
    """(streams below watermark, watermark, config) for gap_edges.

    Events lie at gaps below the watermark, each at or within 2 * window of
    the one above it or beyond, so the last gap > 2 * window lies within
    the search's first span back from the watermark, further back, or
    nowhere. An event may click on several detectors at once, and a stream
    may be empty.
    """
    window = draw(st.integers(1, 50) | st.integers(1, MAX_PS - 1))
    spread = 2 * window
    watermark = draw(st.integers(0, 2**62))
    gap = st.integers(0, spread) | st.integers(spread + 1, 2 * spread)
    below = [draw(st.integers(1, 2 * spread)), *draw(st.lists(gap, max_size=40))]
    times = watermark - np.cumsum(below[: draw(st.integers(0, len(below)))])
    streams = [[] for _ in Detector]
    for t in times[::-1].tolist():
        for det in draw(st.sets(st.sampled_from(Detector), min_size=1)):
            streams[det].append(t)
    return [np.asarray(s, dtype=np.int64) for s in streams], watermark, CcuConfig(window_ps=window, acquisition_s=1.0)


@settings(max_examples=300, deadline=None)
@given(edge_cases(), st.none() | st.integers(0, 200) | st.integers(0, 2**62))
@example(([np.arange(0, 100, 10)] * 4, 100, CcuConfig(window_ps=10, acquisition_s=1.0)), None)  # no gap at all
@example(([np.array([0, *range(100, 200, 10)])] * 4, 200, CcuConfig(window_ps=10, acquisition_s=1.0)), None)  # gap far back
@example(([np.empty(0, dtype=np.int64)] * 4, 7, CcuConfig(window_ps=MAX_PS - 1, acquisition_s=1.0)), None)
def test_gap_edges_searches_inward_to_the_first_and_last_gap(case, below):
    # the watermark closes the timeline above; below it lies the lower
    # bound, `below` ps under the first event, or far, at -2^63, as the
    # click side passes. The case mirrored in time searches the other way
    streams, watermark, config = case
    spread = 2 * config.window_ps
    lo = -(2**63) if below is None else min([watermark, *(int(t[0]) for t in streams if t.size)]) - below
    mirrored = [-t[::-1] for t in streams]
    for events, a, b in ((streams, lo, watermark), (mirrored, -watermark, -lo)):
        assert gap_edges(events, a, b, spread) == oracles.gap_edges(events, a, b, spread)


@pytest.mark.parametrize("near", [0, 2**53])
def test_gap_edges_keeps_far_bounds_and_large_times_exact(near):
    # the first chunk's lower bound and the last chunk's upper one: their
    # distance to an event wraps in int64, and times past 2^53, an odd one
    # here, lose their last bit in float64, as an empty list would make a
    # concatenation
    lo, hi = -(2**63), 2**63 - 1
    events = near + np.array([1, 3, 4, 9], dtype=np.int64)
    streams = [events[:2], events[2:], np.empty(0, dtype=np.int64), []]
    assert gap_edges(streams, lo, hi, 1) == (near + 1, hi)
    assert gap_edges(streams, lo, near + 9, 4) == (near + 1, near + 9)
    assert gap_edges(streams, near + 1, hi, 1) == (near + 3, hi)
    for a, b in ((lo, hi), (lo, near + 9), (near + 1, hi), (near + 1, near + 9)):
        for spread in (0, 1, 2, 4, 5, 2**62):
            assert gap_edges(streams, a, b, spread) == oracles.gap_edges(streams, a, b, spread), (a, b, spread)


def test_a_piece_with_no_partnered_event_skips_the_counters(monkeypatch):
    # the ten counters cost ~30 us each per piece, and count 0 where every
    # event lies alone
    calls = []
    real = coincidence_unit._cluster_count
    monkeypatch.setattr(coincidence_unit, "_cluster_count", lambda *args: calls.append(args[1]) or real(*args))
    config = CcuConfig(window_ps=100, acquisition_s=1e-6)
    alone = {det: np.arange(5, dtype=np.int64) * 10_000 + 1_000 * det for det in Detector}
    tally = accumulate(alone, config)
    assert not calls
    assert set(tally.pairs.values()) == set(tally.triples.values()) == {0}
    assert set(tally.singles.values()) == {5}
    partnered = {**alone, Detector.A2: alone[Detector.A1] + 50}
    tally = accumulate(partnered, config)
    assert sorted(calls) == sorted([*PAIR_KEYS, *TRIPLE_KEYS])
    assert tally.pairs[(Detector.A1, Detector.A2)] == 5


def test_merged_prefilter_drops_isolated_events():
    streams = {det: np.empty(0, dtype=np.int64) for det in Detector}
    streams[Detector.A1] = np.array([0, 1_000_000], dtype=np.int64)
    streams[Detector.B2] = np.array([10, 2_000_000], dtype=np.int64)
    kept = decoded(_clusters(streams, 10).keys)
    assert kept[Detector.A1].tolist() == [0] and kept[Detector.B2].tolist() == [10]
    assert decoded(_clusters(streams, 9).keys)[Detector.A1].size == 0


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
    return accumulate(streams, config)


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
    back = tally_from_csv(text)
    assert back.singles == tally.singles
    assert back.pairs == tally.pairs
    assert back.triples == tally.triples
    assert back.acquisition_s == tally.acquisition_s


def test_csv_roundtrip_keeps_every_counter_in_place():
    # 14 distinct counts, so a swapped key in COUNTERS or the parser shows up
    tally = TallyTable(singles={}, pairs={}, triples={}, acquisition_s=0.25)
    for count, (_, group, key) in enumerate(COUNTERS, start=1):
        getattr(tally, group)[key] = 10 * count
    assert tally_from_csv(tally_to_csv(tally)) == tally
    assert [value for _, value in counter_values(tally)] == list(range(10, 150, 10))


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(0, 2**63 - 1), min_size=14, max_size=14).filter(any),
    acquisition=st.floats(1e-12, 1e4),
)
def test_csv_reads_the_acquisition_from_the_rates(counts, acquisition):
    tally = TallyTable(singles={}, pairs={}, triples={}, acquisition_s=acquisition)
    for count, (_, group, key) in zip(counts, COUNTERS):
        getattr(tally, group)[key] = count
    back = tally_from_csv(tally_to_csv(tally))
    assert back.acquisition_s == pytest.approx(acquisition, rel=1e-15)
    assert (back.singles, back.pairs, back.triples) == (tally.singles, tally.pairs, tally.triples)


@settings(max_examples=300, deadline=None)
@given(
    counts=st.lists(st.integers(0, 10**6), min_size=14, max_size=14).filter(any),
    acquisition=st.floats(1e-3, 10),
)
def test_csv_prints_back_to_the_same_bytes(counts, acquisition):
    # count / rate_per_s alone is an ulp off the acquisition for about one tally in ten
    tally = TallyTable(singles={}, pairs={}, triples={}, acquisition_s=acquisition)
    for count, (_, group, key) in zip(counts, COUNTERS):
        getattr(tally, group)[key] = count
    text = tally_to_csv(tally)
    assert tally_to_csv(tally_from_csv(text)) == text


def with_rate(lines, row, rate):
    """The CSV of lines with the rate_per_s of one row replaced."""
    name, count, _ = lines[row].split(",")
    return "\n".join([*lines[:row], f"{name},{count},{rate}", *lines[row + 1 :]]) + "\n"


def test_csv_parser_rejects_rates_without_one_acquisition():
    tally = build_tally(np.random.default_rng(32))
    lines = tally_to_csv(tally).splitlines()
    top = 1 + max(range(4), key=lambda i: tally.singles[Detector(i)])
    for rate in ("0", "-0.0", "-5.0", "inf", "-inf", "nan", "1e-320"):
        with pytest.raises(ValueError, match="no finite, positive acquisition"):
            tally_from_csv(with_rate(lines, top, rate))
    with pytest.raises(ValueError, match="could not convert"):
        tally_from_csv(with_rate(lines, top, "fast"))
    # a row that disagrees with the largest count's acquisition
    other = 1 if top != 1 else 2
    name, count, rate = lines[other].split(",")
    with pytest.raises(ValueError, match=f"disagree on the acquisition: {name}"):
        tally_from_csv(with_rate(lines, other, repr(float(rate) * (1 + 1e-11))))
    assert tally_from_csv(with_rate(lines, other, repr(float(rate) * (1 + 1e-13)))).singles == tally.singles
    zero = TallyTable({det: 0 for det in Detector}, dict.fromkeys(PAIR_KEYS, 0), dict.fromkeys(TRIPLE_KEYS, 0), 1.0)
    with pytest.raises(ValueError, match="no counts"):
        tally_from_csv(tally_to_csv(zero))


def test_csv_parser_rejects_garbage():
    with pytest.raises(ValueError):
        tally_from_csv("nope,really\n1,2\n")
    # counter missing -> incomplete table
    tally = build_tally(np.random.default_rng(29))
    lines = tally_to_csv(tally).splitlines()
    with pytest.raises(ValueError, match="missing counters: \\[\"triple_A''B'B''\"\\]"):
        tally_from_csv("\n".join(lines[:-1]) + "\n")
    # a second row for one counter would silently replace the first
    with pytest.raises(ValueError, match="repeats the counter \"single_A'\""):
        tally_from_csv("\n".join([*lines, "single_A',7,1.0"]) + "\n")


@pytest.mark.parametrize("row", ["single_A',7", "single_A',7,1.0,2.0"])
def test_csv_parser_names_a_row_without_three_fields(row):
    # unpacked as it was, such a row raised "not enough values to unpack"
    lines = tally_to_csv(build_tally(np.random.default_rng(29))).splitlines()
    with pytest.raises(ValueError, match=re.escape(f"must have 3 fields, name, count and rate_per_s: {row!r}")):
        tally_from_csv("\n".join([lines[0], row, *lines[2:]]) + "\n")


def test_json_report_lists_published_channels():
    tally = build_tally(np.random.default_rng(30))
    tally.metadata = {"note": "synthetic"}
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