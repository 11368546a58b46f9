import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bunchsim import detector_bank, photon_source
from bunchsim.detector_bank import (
    Detector,
    DetectorConfig,
    apply_dead_time,
    click_probability,
    dark_events,
    detect_counts,
    read_events,
    split_counts,
    write_events,
)
from bunchsim.photon_source import MAX_COUNT, substream, uniform_edges

import oracles


def config(**kw):
    base = dict(efficiency=0.6)
    base.update(kw)
    return DetectorConfig(**base)


def rows(counts):
    """detect_counts' mapping of four count rows, indexed by Detector."""
    return dict(zip(Detector, counts))


def brute_dead_time(times, dead):
    """Reference implementation: plain sequential scan."""
    kept = []
    last = None
    for t in times:
        if last is None or t - last >= dead:
            kept.append(t)
            last = t
    return np.asarray(kept, dtype=np.int64)


def test_click_probability_saturates():
    assert click_probability(0, 0.6) == 0.0
    assert click_probability(1, 0.6) == pytest.approx(0.6, abs=1e-15)
    assert click_probability(2, 0.6) == pytest.approx(1 - 0.4**2, abs=1e-15)
    assert click_probability(50, 0.6) == pytest.approx(1.0, abs=1e-9)
    ks = np.arange(0, 8)
    p = click_probability(ks, 0.37)
    assert np.all(np.diff(p) > 0) and p[-1] < 1.0


@pytest.mark.parametrize("efficiency", [0.0, 1e-9, 0.3, 0.583, 0.625, 1 - 1e-12, 1.0])
def test_tabulated_click_probability_equals_the_elementwise_call(efficiency):
    # detect_counts tabulates p_k over 0..max k once per chunk and gathers
    # from the table; each entry must be the double of the per-slot call
    table = click_probability(np.arange(MAX_COUNT + 1), efficiency)
    row = np.random.default_rng(3).permutation(MAX_COUNT + 1).astype(np.int16)
    assert np.array_equal(table[row], click_probability(row, efficiency))


@pytest.mark.parametrize("p", [0.0, 5e-324, 0.5, 1 - 2.0**-53, 1.0])
def test_fire_edge_is_the_uniform_rule(p):
    # a slot fires when its word's uniform (w >> 11) * 2^-53 is below p; the
    # words around t = ceil(p * 2^53), with low bits clear and set, through
    # detect_counts with every p_k patched to p
    t = int(uniform_edges(p))
    words = [w for m in (t - 1, t, t + 1) if 0 <= m < 2**53 for w in (m << 11, (m << 11) | 0x7FF)]
    counts = np.zeros((4, len(words)), dtype=np.int16)
    counts[Detector.A1] = 1
    times = np.arange(len(words), dtype=np.int64)
    stand_in = oracles.Words(np.array(words, dtype=np.uint64))
    with mock.patch.object(detector_bank, "click_probability", lambda k, eta: np.full(np.shape(k), p)):
        clicks = detect_counts(rows(counts), times.__getitem__, config(jitter_sigma_ps=0.0), stand_in)
    assert clicks[Detector.A1].tolist() == [i for i, w in enumerate(words) if (w >> 11) * 2.0**-53 < p]


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 3000), efficiency=st.sampled_from([0.0, 0.3, 0.583, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_fired_slots_are_those_of_the_uniform_rule(m, efficiency, seed):
    # without jitter each detector draws one uniform per occupied slot and
    # nothing else: the slot fires when it is below click_probability(k)
    source = np.random.default_rng(seed)
    counts = source.integers(0, 4, size=(4, m)).astype(np.int16)
    counts[:, source.random(m) < 0.01] = 300
    times = np.arange(m, dtype=np.int64) * 1000
    cfg = config(efficiency=efficiency, jitter_sigma_ps=0.0)
    clicks = detect_counts(rows(counts), times.__getitem__, cfg, substream(seed, 3))
    twin = substream(seed, 3)
    for det in Detector:
        hit = np.flatnonzero(counts[det] > 0)
        fire = twin.random(hit.size) < click_probability(counts[det][hit], efficiency)
        assert np.array_equal(clicks[det], times[hit[fire]])


def test_split_conserves_photons():
    rng = substream(42)
    for _ in range(200):
        p1, p2 = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        k = oracles.split_to_detectors(p1, p2, rng)
        assert k[Detector.A1] + k[Detector.A2] == p1
        assert k[Detector.B1] + k[Detector.B2] == p2


def test_split_counts_is_binomial_half():
    rng = substream(43)
    m = 200_000
    port1 = np.full(m, 2)
    port2 = np.zeros(m, dtype=np.int64)
    counts = split_counts(port1, rng) + split_counts(port2, rng)
    assert np.array_equal(counts[Detector.A1] + counts[Detector.A2], port1)
    assert not counts[Detector.B1].any() and not counts[Detector.B2].any()
    for k in range(3):
        p = math.comb(2, k) / 4.0
        observed = int(np.count_nonzero(counts[Detector.A1] == k))
        sigma = math.sqrt(m * p * (1 - p))
        assert abs(observed - m * p) <= 4 * sigma


def test_detect_counts_perfect_efficiency_no_jitter():
    cfg = config(efficiency=1.0, jitter_sigma_ps=0.0, dark_rate=0.0)
    counts = np.array([[1, 0, 2], [0, 0, 1], [0, 1, 0], [0, 0, 0]])
    times = np.array([1000, 2000, 3000], dtype=np.int64)
    clicks = detect_counts(rows(counts), times.__getitem__, cfg, substream(1))
    assert clicks[Detector.A1].tolist() == [1000, 3000]
    assert clicks[Detector.A2].tolist() == [3000]
    assert clicks[Detector.B1].tolist() == [2000]
    assert clicks[Detector.B2].tolist() == []


def test_detect_counts_zero_efficiency_never_fires():
    cfg = config(efficiency=1e-12, jitter_sigma_ps=0.0)
    counts = np.ones((4, 500), dtype=np.int64)
    times = np.arange(500, dtype=np.int64) * 100_000
    clicks = detect_counts(rows(counts), times.__getitem__, cfg, substream(2))
    assert sum(c.size for c in clicks.values()) == 0


def test_jitter_statistics():
    cfg = config(efficiency=1.0, jitter_sigma_ps=350.0)
    m = 40_000
    counts = np.zeros((4, m), dtype=np.int64)
    counts[Detector.B2] = 1
    times = np.full(m, 10_000_000, dtype=np.int64)
    clicks = detect_counts(rows(counts), times.__getitem__, cfg, substream(3))
    residuals = clicks[Detector.B2].astype(float) - 10_000_000
    assert clicks[Detector.B2].size == m
    assert abs(residuals.mean()) < 4 * 350 / math.sqrt(m)
    # sample std of a normal: sigma * sqrt(2/m) spread, plus <1 rounding
    assert abs(residuals.std() - 350.0) < 4 * 350 / math.sqrt(2 * m) + 1.0


def test_efficiency_hit_rate():
    cfg = config(efficiency=0.582, jitter_sigma_ps=0.0)
    m = 100_000
    counts = np.zeros((4, m), dtype=np.int64)
    counts[Detector.A1] = 1
    times = np.arange(m, dtype=np.int64) * 50_000
    clicks = detect_counts(rows(counts), times.__getitem__, cfg, substream(4))
    sigma = math.sqrt(m * 0.582 * 0.418)
    assert abs(clicks[Detector.A1].size - m * 0.582) <= 4 * sigma


def test_dark_events_rate_and_order():
    cfg = config(dark_rate=27.0)
    out = dark_events(cfg, duration_s=200.0, rng=substream(5))
    for det in Detector:
        t = out[det]
        assert np.all(np.diff(t) >= 0)
        assert t.size == 0 or (t[0] >= 0 and t[-1] < 200e12)
        mu = 27.0 * 200.0
        assert abs(t.size - mu) <= 4 * math.sqrt(mu)


def test_dead_time_matches_brute_force():
    rng = np.random.default_rng(606)
    for _ in range(400):
        size = int(rng.integers(0, 120))
        # cluster timestamps so short gaps are common
        t = np.sort(rng.integers(0, 2_000, size=size).astype(np.int64) * 17)
        dead = int(rng.integers(1, 400))
        assert np.array_equal(apply_dead_time(t, dead), brute_dead_time(t, dead))


@st.composite
def dead_time_cases(draw):
    """(sorted stream, dead time): gaps far below the dead time make long
    chains of registered events inside one short-gap run; gaps may be 0."""
    dead = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 300), st.integers(301, 10**9)))
    gap_hi = draw(st.integers(0, 2 * dead + 2))
    gaps = draw(st.lists(st.integers(0, gap_hi), max_size=600))
    start = draw(st.integers(0, 10**12))
    return start + np.cumsum(np.asarray(gaps, dtype=np.int64)), dead


@settings(max_examples=300, deadline=None)
@given(dead_time_cases())
@example((np.empty(0, dtype=np.int64), 22_000))
@example((np.array([5], dtype=np.int64), 22_000))
@example((np.arange(3_000, dtype=np.int64), 37))  # one run, 82 registered clicks
@example((np.zeros(50, dtype=np.int64), 0))
@example((np.repeat(np.arange(0, 600, 3, dtype=np.int64), 3), 1))
def test_dead_time_equals_scalar_scan(case):
    t, dead = case
    assert np.array_equal(apply_dead_time(t, dead), brute_dead_time(t, dead))


@settings(max_examples=300, deadline=None)
@given(dead_time_cases(), st.lists(st.integers(0, 600), max_size=6))
@example((np.arange(0, 100, 10, dtype=np.int64), 35), [1, 2, 3, 8])  # cuts inside the blind window
@example((np.zeros(20, dtype=np.int64), 0), [5, 5, 15])  # equal timestamps on both sides of a cut
def test_dead_time_piece_by_piece_with_carry_equals_whole_stream(case, cuts):
    t, dead = case
    registered, last = [], None
    for piece in np.split(t, sorted(min(c, t.size) for c in cuts)):
        kept = apply_dead_time(piece, dead, last)
        if kept.size:
            last = int(kept[-1])
        registered.append(kept)
    assert np.array_equal(np.concatenate(registered), brute_dead_time(t, dead))


def test_dead_time_known_case():
    # 21 ns gap suppressed, then the 40 ns event is 40 ns after the last
    # *registered* click, so it survives
    t = np.array([0, 21_000, 40_000], dtype=np.int64)
    assert apply_dead_time(t, 22_000).tolist() == [0, 40_000]
    # non-paralyzable: the suppressed click must not extend the blind window
    t = np.array([0, 21_000, 42_900], dtype=np.int64)
    assert apply_dead_time(t, 22_000).tolist() == [0, 42_900]


def test_detect_slot_scalar_path_applies_dead_time():
    cfg = config(efficiency=1.0, jitter_sigma_ps=0.0, dead_time_ps=22_000)
    last = {}
    events = oracles.detect_slot(np.array([1, 0, 0, 0]), 5_000, cfg, substream(6), last_click_ps=last)
    assert [(e.detector, e.time_ps) for e in events] == [(Detector.A1, 5_000)]
    # within dead time of the first click: swallowed
    events = oracles.detect_slot(np.array([1, 0, 0, 0]), 15_000, cfg, substream(7), last_click_ps=last)
    assert events == []


def test_event_io_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    streams = {
        det: np.sort(rng.integers(0, 10**12, size=int(rng.integers(0, 50)), dtype=np.int64))
        for det in Detector
    }
    for fmt, name in (("text", "e.txt"), ("binary", "e.bin")):
        path = tmp_path / name
        write_events(path, [streams], fmt=fmt)
        back = read_events(path, fmt=fmt)
        for det in Detector:
            assert np.array_equal(back[det], streams[det]), (fmt, det)


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_event_dump_bytes_match_record_oracle(tmp_path, fmt):
    rng = np.random.default_rng(9)
    sizes = {Detector.A1: 0, Detector.A2: 1, Detector.B1: 70_000, Detector.B2: 3}  # B' spans two text blocks
    streams = {det: np.sort(rng.integers(0, 2**62, size=n, dtype=np.int64)) for det, n in sizes.items()}
    streams[Detector.B2][:] = [0, 2**62, 2**63 - 1]
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    # written in three pieces; B''s middle piece spans two write blocks
    cuts = {Detector.A1: (0, 0), Detector.A2: (0, 1), Detector.B1: (5, 65_600), Detector.B2: (3, 3)}
    bounds = {det: [0, *cut, None] for det, cut in cuts.items()}
    pieces = [{det: streams[det][b[i] : b[i + 1]] for det, b in bounds.items()} for i in range(3)]
    write_events(ours, pieces, fmt=fmt)
    oracles.write_events(theirs, streams, fmt=fmt)
    assert ours.read_bytes() == theirs.read_bytes()
    for reader in (read_events, oracles.read_events):
        back = reader(ours, fmt=fmt)
        for det in Detector:
            assert back[det].dtype == np.int64
            assert np.array_equal(back[det], streams[det]), (reader, det)


def test_event_dump_keeps_file_order_per_detector(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("B'\t7\nA'\t5\n\nB'\t3\r\n")
    back = read_events(path, fmt="text")
    assert back[Detector.B1].tolist() == [7, 3] and back[Detector.A1].tolist() == [5]
    assert back[Detector.A2].size == 0


@pytest.mark.parametrize(
    "fmt,content",
    [
        ("binary", bytes([0]) + (5).to_bytes(8, "little") + bytes([1, 2])),  # partial record
        ("binary", bytes([4]) + (5).to_bytes(8, "little")),  # unknown detector id
        ("binary", bytes([0]) + (2**63).to_bytes(8, "little")),  # beyond int64
        ("text", "A'\t5\nC'\t6\n"),  # unknown label
        ("text", "A'\t5\t6\n"),  # extra field
        ("text", "A'\tfive\n"),  # not an integer
    ],
)
def test_malformed_event_dumps_raise(tmp_path, fmt, content):
    path = tmp_path / "bad"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    with pytest.raises(ValueError):
        read_events(path, fmt=fmt)


def test_binary_dump_is_read_in_record_blocks(tmp_path):
    # reading the whole file, an int64 copy of it and per-detector masks at
    # once took 3.3x the returned streams; block by block it takes 1.7x
    rng = np.random.default_rng(10)
    sizes = {Detector.A1: 100_000, Detector.A2: 50_000, Detector.B1: 70_000, Detector.B2: 30}
    streams = {det: np.sort(rng.integers(0, 10**12, size=n, dtype=np.int64)) for det, n in sizes.items()}
    path = tmp_path / "e.bin"
    write_events(path, [streams], fmt="binary")
    block = photon_source._SCAN_BLOCK * detector_bank._RECORD.itemsize
    assert block < path.stat().st_size // 2  # the file spans several blocks
    assert oracles.traced_peak(read_events, path, "binary") < 2 * sum(t.nbytes for t in streams.values()) + block


def test_interleaved_binary_dump_keeps_file_order_per_detector(tmp_path):
    # a dump from elsewhere may mix detectors within a record block, and its
    # times need not be sorted; each detector's times come back in file order
    rng = np.random.default_rng(11)
    records = np.empty(3 * photon_source._SCAN_BLOCK + 5, dtype=detector_bank._RECORD)
    records["det"] = rng.integers(0, len(Detector), size=records.size)
    records["det"][: photon_source._SCAN_BLOCK + 7] = Detector.B1  # one grouped block, then a mixed one
    records["t"] = rng.integers(0, 2**63, size=records.size, dtype=np.uint64)
    path = tmp_path / "e.bin"
    records.tofile(path)
    back, ref = read_events(path, fmt="binary"), oracles.read_events(path, fmt="binary")
    for det in Detector:
        assert back[det].dtype == np.int64 and np.array_equal(back[det], ref[det]), det


def test_binary_dump_rejects_negative_timestamps(tmp_path):
    # every timestamp is checked before the file is opened, so a refused
    # stream leaves no file, whether it comes first or after one written
    path = tmp_path / "e.bin"
    for streams in ({Detector.A1: [-1]}, {Detector.A1: [1, 2], Detector.A2: [-1]}):
        with pytest.raises(ValueError, match="negative timestamp"):
            write_events(path, [streams], fmt="binary")
        assert not path.exists()
    with pytest.raises(ValueError, match="negative timestamp"):
        write_events(path, [{Detector.B1: [1, 2]}, {Detector.B1: [3, -4]}], fmt="binary")
    assert not path.exists()


def test_config_validation():
    with pytest.raises(ValueError):
        config(efficiency=-0.1)
    with pytest.raises(ValueError):
        config(efficiency=1.2)
    with pytest.raises(ValueError):
        config(dark_rate=-1.0)
    with pytest.raises(ValueError):
        config(dead_time_ps=-1)


def test_dark_poisson_distribution():
    cfg = config(dark_rate=100.0)
    counts = [dark_events(cfg, 1.0, substream(9, i))[Detector.A1].size for i in range(300)]
    # mean and variance of Poisson(100)
    assert abs(np.mean(counts) - 100.0) < 4 * math.sqrt(100.0 / 300)
    assert 60.0 < np.var(counts) < 150.0