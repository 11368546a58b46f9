"""The streamed click side against the whole-stream pass it replaces.

simulate_streams merges, filters and counts each chunk's clicks as the chunk
arrives, holding back only the events a later chunk's jitter could still
precede and the coincidence cluster open at the edge. Counts and registered
streams must equal those of oracles.whole_stream_click_side, which holds
every click of the acquisition at once; memory must follow the chunk, not
the acquisition.
"""

import ast
import concurrent.futures
import dataclasses
import functools
import importlib
import multiprocessing
import os
import pickle
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bunchsim import coincidence_unit, photon_source
from bunchsim.cli_harness import parse_config, run_experiment
from bunchsim.coincidence_unit import CcuConfig, counter_values
from bunchsim.detector_bank import Detector, DetectorConfig, apply_dead_time, dark_events
from bunchsim.photon_source import CHUNK_SLOTS, STREAM_DARK, SourceConfig, num_chunks, substream
from bunchsim.routing_models import RoutingModel
from bunchsim.simulate import (
    _END,
    _START,
    SimConfig,
    _chunk_job,
    _ClickSide,
    _count,
    _count_interior,
    _simulate_chunk,
    _spans,
    simulate,
    simulate_streams,
)
from oracles import traced_peak, whole_stream_click_side, whole_stream_runs


def ints(values):
    return np.asarray(values, dtype=np.int64)


def joined(pieces):
    """Per detector, the registered events of the counted pieces in turn."""
    return {det: np.concatenate([ints([]), *(piece[det] for piece in pieces)]) for det in Detector}


def assert_same_run(pieces, tally, ref_streams, ref_tally):
    for piece in pieces:
        assert all(piece[det].dtype == np.int64 for det in Detector)
    streams = joined(pieces)
    for det in Detector:
        assert streams[det].tobytes() == ref_streams[det].tobytes(), det.label
    assert list(counter_values(tally)) == list(counter_values(ref_tally))


def recording(inputs):
    """apply_dead_time, appending a copy of the times of each call to inputs."""

    def recorded(times, *args):
        inputs.append(np.array(times))
        return apply_dead_time(times, *args)

    return recorded


def merged_chunks(pieces, dark, watermarks):
    """Each chunk's candidates merged with its darks, those from the previous
    chunk's watermark to its own, the last chunk's to _END, as the chunk job
    merges them: sorted copies."""
    bounds = [_START, *watermarks[:-1], _END]
    return [
        {det: np.sort(np.concatenate([clicks[det], dark[det][(dark[det] >= lo) & (dark[det] < hi)]]), kind="stable")
         for det in Detector}
        for clicks, lo, hi in zip(pieces, bounds, bounds[1:])
    ]


def assert_filtered_once(inputs, events):
    """Every event entered dead time exactly once, in time order per call."""
    assert all(np.all(t[1:] >= t[:-1]) for t in inputs)
    assert np.sort(np.concatenate([ints([]), *inputs])).tolist() == np.sort(np.concatenate([ints([]), *events])).tolist()


@st.composite
def click_side_cases(draw):
    """Per-chunk candidate pieces on a picosecond scale where equal timestamps,
    coincidences and dead time are common.

    Chunk i has nominal times [edge_i, edge_i+1); its candidates are spread by
    up to reach, so reach 0 keeps them in their chunk, and a reach of a few
    chunk lengths makes them cross several edges. Its watermark is the next
    edge less the reach, below which no later candidate lies. The last chunk's
    is _END or, as for any other chunk, its end less the reach, which leaves
    the rest to _ClickSide.finish; with no chunks only the darks remain, fed
    on their own. A window up to 30 ps covers most of a chunk, so clusters stay
    open across edges.
    """
    lengths = draw(st.lists(st.integers(1, 40), min_size=0, max_size=6))
    edges = np.cumsum([0, *lengths]).tolist()
    reach = draw(st.sampled_from([0, 3, 30, 150]))
    acq_ps = draw(st.integers(1, edges[-1] + reach + 3))  # candidates may lie at or beyond it
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        times = st.integers(max(lo - reach, 0), hi - 1 + reach)
        pieces.append({det: ints(draw(st.lists(times, max_size=10))) for det in Detector})
    dark = {det: np.sort(ints(draw(st.lists(st.integers(0, acq_ps - 1), max_size=4)))) for det in Detector}
    watermarks = [edge - reach for edge in edges[1:]]
    if watermarks and draw(st.booleans()):
        watermarks[-1] = _END
    dead = draw(st.sampled_from([0, 1, 6, 25, 500]))  # 500 outlasts every chunk
    window = draw(st.integers(1, 8) | st.integers(9, 30))
    return pieces, watermarks, dark, dead, CcuConfig(window, acq_ps * 1e-12)


@settings(max_examples=200, deadline=None)
@given(click_side_cases())
@example((
    # one click per detector on each side of the first edge, 3 ps apart:
    # a cluster that spans the edge and a dead time carried across it
    [{det: ints([9, 10]) for det in Detector}, {det: ints([10, 12]) for det in Detector}],
    [10 - 3, _END], {det: ints([]) for det in Detector}, 2, CcuConfig(2, 20e-12),
))
@example((
    # a triple 4 ps = 2 * window wide, whose last click lies 3 ps below the
    # watermark: the gap inside the triple is no cluster edge
    [{Detector.A1: ints([0]), Detector.A2: ints([0]), Detector.B1: ints([4]), Detector.B2: ints([])},
     {det: ints([]) for det in Detector}],
    [7, _END], {det: ints([]) for det in Detector}, 0, CcuConfig(2, 12e-12),
))
def test_chunk_jobs_and_click_side_equal_whole_stream_pass(case):
    # each chunk job cuts its chunk and counts its interior, and the main
    # click side counts the rest; a span starts past every earlier candidate
    # and the earlier watermark, and ends at the chunk's watermark, and the
    # darks from the earlier watermark to the chunk's are merged into its
    # candidates
    pieces, watermarks, dark, dead, ccu = case
    ref_streams, ref_tally = whole_stream_click_side(pieces, dark, dead, ccu)
    spans, start = [], _START
    for clicks, end in zip(pieces, watermarks):
        spans.append((start, end))
        start = max(start, end, *(int(t.max()) + 1 for t in clicks.values() if t.size))
    inputs = []
    # patched per example, since a function-scoped fixture would span them all
    with mock.patch.object(importlib.import_module("bunchsim.simulate"), "apply_dead_time", recording(inputs)):
        counted = []
        side = _ClickSide(dead, ccu, counted.append)
        for events, span in zip(merged_chunks(pieces, dark, watermarks), spans):
            head, interior, tail = _count_interior(events, span, dead, ccu, True)
            held = {det: t.copy() for det, t in tail.items()}
            side.take(head, interior, tail)
            if head is not None:
                # feeding the head left nothing buffered below the cut
                for det in Detector:
                    assert side.raw[det].tobytes() == held[det].tobytes(), det.label
        if not pieces:
            side.feed(dict(dark))
        tally = side.finish({})
    assert_same_run(counted, tally, ref_streams, ref_tally)
    assert_filtered_once(inputs, [*(clicks[det] for clicks in pieces for det in Detector), *dark.values()])


def test_a_first_chunks_interior_starts_at_its_first_event():
    # the first chunk's span starts at _START: its timeline opens with a gap
    # below every event, so nothing lies below the interior. Reset gaps are
    # wider than 10 ps here, so the interior ends at 600, after the last
    events = {det: ints([10 + det, 20 + det, 500 + det, 900]) for det in Detector}
    head, counted, tail = _count_interior(dict(events), (_START, 600), 0, CcuConfig(5, 1e-9), True)
    assert counted is not None
    for det in Detector:
        assert head[det].size == 0
        assert counted.piece[det].tolist() == events[det][:3].tolist()
        assert tail[det].tolist() == [900]


@pytest.mark.parametrize("end", [120, 200])
def test_a_span_with_no_two_reset_gaps_has_no_interior(end):
    # in the span's timeline from 99 to 120 no gap is wider than 10 ps, so
    # it has no cluster edge either: no cut, and every event is tail. Up to
    # 200 only the gap before the end is: one reset gap and no interior, but
    # a cluster edge, so the cut is at 200 and the events below it, inside
    # the span and out, are head
    events = {det: ints([95, 100 + det, 108 + det, 115, 300]) for det in Detector}
    head, counted, tail = _count_interior(dict(events), (100, end), 0, CcuConfig(5, 1e-9), True)
    assert counted is None
    if end == 120:
        assert head is None
        assert all(tail[det].tolist() == events[det].tolist() for det in Detector)
    else:
        assert all(head[det].tolist() == events[det][:-1].tolist() for det in Detector)
        assert all(tail[det].tolist() == [300] for det in Detector)


STREAM_CASES = (
    "slots, jitter_ps, dead_time_ps, dark_rate, window_ps",
    [
        (1300, 350.0, 22_000, 1e5, 5_000),  # the presets: jitter far inside a chunk
        (1300, 600_000.0, 0, 1e5, 5_000),  # reach 7.4 us: across one 6.4 us chunk edge, no dead time
        (1300, 3_000_000.0, 10_000_000, 1e5, 5_000),  # reach 37 us: across several edges, dead time beyond a chunk
        (1300, 350.0, 22_000, 1e5, 500_000),  # clusters cut at gaps > 1 us, a few per chunk
        (1300, 350.0, 22_000, 1e5, 2_500_000),  # gaps > 5 us, most of a chunk: no cluster closes
        (0, 350.0, 22_000, 2e10, 5_000),  # no slot, so one empty chunk: ~1000 darks per detector
        # a dead time of 10 slots: a reset gap is a dead time wide, far more
        # than a cluster edge
        (1300, 350.0, 1_000_000, 1e5, 5_000),
        # darks every ~10 ns and reset gaps of 201 ps: many darks lie past an
        # earlier chunk's reach but below its watermark
        (1300, 350.0, 0, 1e8, 100),
    ],
)


def stream_configs(slots, jitter_ps, dead_time_ps, dark_rate, window_ps):
    """One config per model, for 64-slot chunks of 6.4 us: 1300 slots make 20
    full chunks and a partial one."""
    source = SourceConfig(mean_photon_number=0.5, slot_rate=1e7, duration=(slots + 0.5) * 1e-7, seed=12)
    detectors = DetectorConfig(0.6, dead_time_ps, jitter_ps, dark_rate=dark_rate)
    return [SimConfig(source, detectors, model, window_ps) for model in RoutingModel]


@pytest.mark.parametrize(*STREAM_CASES)
def test_simulate_streams_equals_whole_stream_pass(monkeypatch, slots, jitter_ps, dead_time_ps, dark_rate, window_ps):
    monkeypatch.setattr(photon_source, "CHUNK_SLOTS", 64)
    configs = stream_configs(slots, jitter_ps, dead_time_ps, dark_rate, window_ps)
    counted = [[] for _ in configs]
    tallies = simulate_streams(configs, on_piece=lambda m, piece: counted[m].append(piece))
    for pieces, tally, (ref_streams, ref_tally) in zip(counted, tallies, whole_stream_runs(configs)):
        assert_same_run(pieces, tally, ref_streams, ref_tally)
    assert all(tally.singles[det] for tally in tallies for det in Detector)
    assert simulate_streams(configs) == tallies


class _InlinePool:
    """A ProcessPoolExecutor that runs each task as it is submitted and
    records the chunk index of each chunk job it is given, and each task."""

    submitted: list = []
    calls: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.calls.append((fn, args))
        if fn is _chunk_job:
            self.submitted.append(args[-1])
        future = Future()
        future.set_result(fn(*args))
        return future


def test_pool_keeps_at_most_two_chunks_per_worker_ahead(monkeypatch):
    # results a slow click side has not consumed yet would otherwise pile up
    # for the whole acquisition
    monkeypatch.setattr(photon_source, "CHUNK_SLOTS", 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "submitted", [])
    source = SourceConfig(mean_photon_number=0.5, slot_rate=1e7, duration=1300.5e-7, seed=12)
    config = SimConfig(source, DetectorConfig(0.6), RoutingModel.CLASSICAL, 5_000)
    ahead = []
    tally = simulate(config, workers=3, progress=lambda done, total: ahead.append(len(_InlinePool.submitted) - done))
    assert _InlinePool.submitted == list(range(21))
    assert max(ahead) == 6
    assert list(counter_values(tally)) == list(counter_values(simulate(config)))


class _LazyFuture(Future):
    """A future whose job runs only at the first result() call."""

    def __init__(self, job):
        super().__init__()
        self.job = job

    def result(self, timeout=None):
        if not self.done():
            self.set_result(self.job())
        return super().result(timeout)


class _LazyPool(_InlinePool):
    """A stand-in pool whose futures run their task only when their result
    is taken. At each submit it records how many _count futures have not
    had their result taken yet."""

    counts: list = []
    untaken: list = []

    def submit(self, fn, *args):
        self.untaken.append(sum(not future.done() for future in self.counts))
        future = _LazyFuture(functools.partial(fn, *args))
        if fn is _count:
            self.counts.append(future)
        return future


def test_the_click_side_takes_each_count_before_the_next_job(monkeypatch):
    # a dead time of ten slots makes jobs of the events between interiors;
    # each one's result is taken, and its piece handed on, before the pool
    # is given anything else, so the main process never holds a count that
    # a pool's future still owes
    monkeypatch.setattr(photon_source, "CHUNK_SLOTS", 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _LazyPool)
    monkeypatch.setattr(_LazyPool, "counts", [])
    monkeypatch.setattr(_LazyPool, "untaken", [])
    configs = stream_configs(1300, 350.0, 1_000_000, 1e5, 5_000)
    counted = [[] for _ in configs]
    tallies = simulate_streams(configs, workers=2, on_piece=lambda m, piece: counted[m].append(piece))
    for pieces, tally, (ref_streams, ref_tally) in zip(counted, tallies, whole_stream_runs(configs)):
        assert_same_run(pieces, tally, ref_streams, ref_tally)
    assert _LazyPool.counts and all(future.done() for future in _LazyPool.counts)
    assert _LazyPool.untaken == [0] * len(_LazyPool.untaken)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="only a forked worker inherits CHUNK_SLOTS")
def test_a_real_pool_at_large_mean_equals_one_worker(monkeypatch):
    # mean 20 at 7.8e7 slots/s: the 22 ns dead time outlasts the slot and
    # few spans hold a reset gap (none of these eight), so every count is a
    # pool job that the click side waits for
    monkeypatch.setattr(photon_source, "CHUNK_SLOTS", 1 << 14)
    source = SourceConfig(mean_photon_number=20.0, slot_rate=7.8e7, duration=8 * (1 << 14) / 7.8e7, seed=3)
    configs = [SimConfig(source, DetectorConfig(0.6), model, 5_000) for model in (RoutingModel.CLASSICAL, RoutingModel.BUNCHING)]
    assert num_chunks(source) == 8
    runs = {}
    for workers in (1, 2):
        counted = [[] for _ in configs]
        tallies = simulate_streams(configs, workers=workers, on_piece=lambda m, piece: counted[m].append(piece))
        runs[workers] = tallies, [joined(pieces) for pieces in counted]
    (tallies, streams), (pooled_tallies, pooled_streams) = runs[1], runs[2]
    assert pooled_tallies == tallies
    for pooled, ref in zip(pooled_streams, streams):
        for det in Detector:
            assert pooled[det].tobytes() == ref[det].tobytes(), det.label
    assert all(tally.singles[det] for tally in tallies for det in Detector)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(*STREAM_CASES)
def test_pooled_chunk_jobs_equal_whole_stream_pass(monkeypatch, slots, jitter_ps, dead_time_ps, dark_rate, window_ps, workers):
    # each chunk job counts its interior and the main process the events
    # between two interiors; together they filter each event once
    monkeypatch.setattr(photon_source, "CHUNK_SLOTS", 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "submitted", [])
    configs = stream_configs(slots, jitter_ps, dead_time_ps, dark_rate, window_ps)
    inputs = []
    monkeypatch.setattr(importlib.import_module("bunchsim.simulate"), "apply_dead_time", recording(inputs))
    counted = [[] for _ in configs]
    tallies = simulate_streams(configs, workers=workers, on_piece=lambda m, piece: counted[m].append(piece))
    for pieces, tally, (ref_streams, ref_tally) in zip(counted, tallies, whole_stream_runs(configs)):
        assert_same_run(pieces, tally, ref_streams, ref_tally)
    src, detectors = configs[0].source, configs[0].detectors
    models = [config.model for config in configs]
    candidates = [t for i in range(num_chunks(src)) for clicks, _ in _simulate_chunk(src, detectors, models, i)
                  for t in clicks.values()]
    dark = dark_events(detectors, src.duration, substream(src.seed, STREAM_DARK))
    assert_filtered_once(inputs, [*candidates, *(t for _ in configs for t in dark.values())])


@pytest.mark.parametrize(*STREAM_CASES)
def test_the_darks_tile_the_chunk_jobs(monkeypatch, slots, jitter_ps, dead_time_ps, dark_rate, window_ps):
    # each job takes the darks from the previous chunk's watermark to its
    # own, so the jobs' darks, joined in schedule order, are the run's draw,
    # each dark once, whatever the spans between the watermarks leave out
    monkeypatch.setattr(photon_source, "CHUNK_SLOTS", 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "submitted", [])
    monkeypatch.setattr(_InlinePool, "calls", [])
    configs = stream_configs(slots, jitter_ps, dead_time_ps, dark_rate, window_ps)
    tallies = simulate_streams(configs, workers=2)
    src, detectors = configs[0].source, configs[0].detectors
    dark = dark_events(detectors, src.duration, substream(src.seed, STREAM_DARK))
    darks = [args[6] for fn, args in _InlinePool.calls if fn is _chunk_job]
    if slots:
        assert len(darks) == num_chunks(src)
        for m in range(len(configs)):
            for det in Detector:
                joined = np.concatenate([tiles[m][det] for tiles in darks])
                assert joined.tobytes() == dark[det].tobytes(), (m, det.label)
    else:  # a run of no slot is one empty chunk, which runs in process and counts every dark
        assert num_chunks(src) == 1 and _InlinePool.calls == []
        for tally, (_, ref_tally) in zip(tallies, whole_stream_runs(configs)):
            assert list(counter_values(tally)) == list(counter_values(ref_tally))
        assert all(tally.singles[det] for tally in tallies for det in Detector)


def test_a_run_of_no_slot_is_one_empty_chunk(tmp_path):
    # 1e-7 s at 1e6 slots/s holds no whole slot: the run is chunk 0 with no
    # slot, whose job counts the ~1e5 darks per detector as its interior,
    # and it reports its progress as every other run does, at any worker count
    flags = {"model": "classical", "mean_photon_number": 0.5, "slot_rate": 1e6, "acquisition_s": 1e-7,
             "dark_rate": 1e12, "seed": 3, "events_format": "binary"}
    assert num_chunks(SourceConfig(0.5, 1e6, 1e-7, 3)) == 1
    files = {}
    for workers in (1, 2):
        out = tmp_path / str(workers)
        calls = []
        cfg = parse_config("", {**{key: str(value) for key, value in flags.items()}, "output_dir": str(out)})
        tally, _ = run_experiment(cfg, workers=workers, progress=lambda *done: calls.append(done))
        assert calls == [(1, 1)]
        assert all(tally.singles[det] for det in Detector)
        files[workers] = {name: (out / name).read_bytes() for name in ("tally.csv", "analysis.csv", "run.json", "events.bin")}
    assert files[1] == files[2]


def test_the_events_between_two_interiors_make_one_job(monkeypatch):
    # a dead time of ten slots: cluster edges lie inside every tail, so a
    # tail counted on its own would make a job of its own below the next cut,
    # one more round trip to the pool that the main process waits for; a
    # tail that waits raw joins the next head instead
    monkeypatch.setattr(photon_source, "CHUNK_SLOTS", 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "submitted", [])
    monkeypatch.setattr(_InlinePool, "calls", [])
    configs = stream_configs(1300, 350.0, 1_000_000, 1e5, 5_000)
    tallies = simulate_streams(configs, workers=2)
    chunks = num_chunks(configs[0].source)
    jobs = sum(fn is _count for fn, _ in _InlinePool.calls)
    # one per model and chunk edge, and one at finish
    assert 0 < jobs <= len(configs) * ((chunks - 1) + 1)
    assert tallies == simulate_streams(configs)


def test_a_pooled_run_counts_nothing_in_the_main_process(monkeypatch):
    # the darks, dead time and counting run in the pool's jobs, chunk
    # interiors and the events between them alike, so wrappers installed in
    # the main process, as perfbench's tracer installs them, see either
    # every call (one worker) or none (a pool), never a share that depends
    # on the schedule
    calls = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    simulate_module = importlib.import_module("bunchsim.simulate")
    coincidence_module = importlib.import_module("bunchsim.coincidence_unit")
    monkeypatch.setattr(simulate_module, "apply_dead_time", recorded("dead time", apply_dead_time))
    monkeypatch.setattr(simulate_module, "dark_events", recorded("darks", dark_events))
    monkeypatch.setattr(coincidence_module, "accumulate", recorded("accumulate", coincidence_module.accumulate))
    source = SourceConfig(mean_photon_number=0.05, slot_rate=1e9, duration=2.5 * CHUNK_SLOTS / 1e9, seed=5)
    config = SimConfig(source, DetectorConfig(0.6, dark_rate=1e5), RoutingModel.CLASSICAL, 5_000)
    pooled = simulate(config, workers=2)
    assert calls == []
    assert list(counter_values(simulate(config))) == list(counter_values(pooled))
    assert {"darks", "dead time", "accumulate"} <= set(calls)


def test_only_a_chunks_edges_and_tally_travel_back():
    # block 2, three models, seed 11: the candidates of chunk 3, which the
    # main process counted, pickled to 2 587 498 bytes
    cfg = parse_config("", {"preset": "table1-block2", "model": "classical", "seed": 11})
    configs = [dataclasses.replace(cfg, model=model.value).sim_config() for model in RoutingModel]
    src, detectors, ccu = configs[0].source, configs[0].detectors, configs[0].ccu
    spans = _spans(src, detectors)
    dark = dark_events(detectors, src.duration, substream(11, STREAM_DARK))
    tile = {det: t[(t >= spans[2][1]) & (t < spans[3][1])] for det, t in dark.items()}
    result = _chunk_job(src, detectors, [c.model for c in configs], ccu, False, spans[3], [tile] * len(configs), 3)
    assert all(interior is not None and interior.tally.singles[Detector.A1] for _, interior, _, _ in result)
    assert len(pickle.dumps(result)) < 64 * 2**10


@pytest.mark.parametrize("mean, slot_rate", [
    # whole streams held to the end took ~4x the 4-chunk peak at 40 chunks
    (0.5, 1e7),
    # the large-mean limit: the 22 ns dead time outlasts the 12.8 ns slot and
    # a slot with no click has odds ~e^-12, so few spans hold a reset gap and
    # most chunk jobs cut their chunk at its last cluster edge, the click
    # side carrying each detector's last registered time; raw events held
    # until the next interior took ~5x the 4-chunk peak at 40 chunks
    (20.0, 7.8e7),
])
def test_memory_follows_the_chunk_not_the_acquisition(monkeypatch, mean, slot_rate):
    monkeypatch.setattr(photon_source, "CHUNK_SLOTS", 1 << 14)

    def peak(chunks):
        source = SourceConfig(mean_photon_number=mean, slot_rate=slot_rate, duration=chunks * (1 << 14) / slot_rate, seed=3)
        return traced_peak(simulate, SimConfig(source, DetectorConfig(0.6), RoutingModel.CLASSICAL, 5_000))

    assert peak(40) < 1.3 * peak(4)


def test_held_events_stay_within_a_chunk_when_clusters_close_early_in_it():
    # A1 clicks every 10 ps, so with a 100 ps window the only cluster edges are
    # the 1 ns gaps at the start of each 100 ns chunk, far below its end.
    # Searching only near the end held the whole acquisition back.
    length, window = 100_000, 100
    pieces = [
        {det: ints(np.arange(i * length + 1_000, (i + 1) * length, 10) if det is Detector.A1 else [])
         for det in Detector}
        for i in range(20)
    ]
    dark = {det: ints([]) for det in Detector}
    ccu = CcuConfig(window, 20 * length * 1e-12)
    counted = []
    side = _ClickSide(0, ccu, counted.append)
    buffered = []
    for i, clicks in enumerate(pieces):
        side.take(*_count_interior(dict(clicks), (i * length, (i + 1) * length), 0, ccu, True))
        buffered.append(sum(t.size for t in side.raw.values()))
    assert max(buffered) == pieces[0][Detector.A1].size
    assert_same_run(counted, side.finish({}), *whole_stream_click_side(pieces, dark, 0, ccu))


def test_the_click_side_stitches_chunk_results_without_a_gap_search(monkeypatch):
    # mean 20 at 7.8e7 slots/s in 2^12-slot chunks: no span holds two reset
    # gaps, so each chunk job cuts its chunk at its last cluster edge. The
    # main click side only stitches the jobs' results in schedule order: it
    # searches no gap, and holds only the few events above each cut
    monkeypatch.setattr(photon_source, "CHUNK_SLOTS", 1 << 12)
    source = SourceConfig(mean_photon_number=20.0, slot_rate=7.8e7, duration=16 * (1 << 12) / 7.8e7, seed=3)
    config = SimConfig(source, DetectorConfig(0.6), RoutingModel.BUNCHING, 5_000)
    src, detectors = config.source, config.detectors
    spans = _spans(src, detectors)
    dark = dark_events(detectors, src.duration, substream(3, STREAM_DARK))
    bounds = [_START, *(end for _, end in spans)]
    results = []
    for i, span in enumerate(spans):
        tile = {det: t[(t >= bounds[i]) & (t < bounds[i + 1])] for det, t in dark.items()}
        [(head, interior, tail, _)] = _chunk_job(src, detectors, [config.model], config.ccu, True, span, [tile], i)
        results.append((head, interior, tail))
    assert len(results) == 16 and all(head is not None and interior is None for head, interior, _ in results)
    sizes = [sum(t.size for part in (head, tail) for t in part.values()) for head, _, tail in results]

    search = coincidence_unit.gap_edges

    def counting_only(*args):
        # accumulate cuts the streams it counts into pieces itself
        if sys._getframe(1).f_code.co_name != "_pieces":
            raise AssertionError("the click side searched for a gap")
        return search(*args)

    monkeypatch.setattr(coincidence_unit, "gap_edges", counting_only)
    counted = []
    side = _ClickSide(detectors.dead_time_ps, config.ccu, counted.append)
    buffered = []
    for result in results:
        side.take(*result)
        buffered.append(sum(t.size for t in side.raw.values()))
    tally = side.finish({})
    assert max(buffered) < 0.01 * min(sizes)
    [(ref_streams, ref_tally)] = whole_stream_runs([config])
    assert_same_run(counted, tally, ref_streams, ref_tally)


def loaded_after(commands, package):
    """The modules of package that a fresh interpreter holds after running each CLI command in turn."""
    script = (
        "import sys\n"
        "from bunchsim import cli_harness\n"
        f"for argv in {commands!r}:\n"
        "    assert cli_harness.main(argv) == 0, argv\n"
        f"print(sorted(name for name in sys.modules if name == {package!r} or name.startswith({package + '.'!r})))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True
    )
    return ast.literal_eval(out.stdout.splitlines()[-1])  # after the data the commands print


def test_a_run_on_one_worker_loads_no_process_pool(tmp_path):
    # concurrent.futures loads its process pool, and multiprocessing with
    # it, at the first lookup of ProcessPoolExecutor, which only a pool makes
    flags = ["--model", "classical", "--mean-photon-number", "0.05", "--acquisition-s", "0.001", "--seed", "3"]
    run = ["run", *flags, "--workers", "1", "--quiet", "--output-dir", str(tmp_path)]
    assert loaded_after([run], "multiprocessing") == []
    assert (tmp_path / "tally.csv").exists()


def test_a_process_that_draws_nothing_loads_no_random_number_code(tmp_path):
    # photon_source.substream loads numpy.random at a process's first draw:
    # a pooled compare's main process draws nothing, its pool drawing the
    # darks too, and predict and calibrate are closed-form. 5e6 slots make
    # two chunks, so the pool starts; on one worker the run draws in process
    flags = ["--models", "classical,bunching,phase-basis", "--mean-photon-number", "0.05", "--slot-rate", "1e9",
             "--acquisition-s", "0.005", "--seed", "3", "--quiet"]
    pooled = [
        ["compare", *flags, "--workers", "2", "--output-dir", str(tmp_path / "pooled")],
        ["predict", "--model", "classical", "--mean-photon-number", "0.05"],
        ["calibrate"],
    ]
    assert loaded_after(pooled, "numpy.random") == []
    one_worker = ["compare", *flags, "--workers", "1", "--output-dir", str(tmp_path / "one")]
    assert "numpy.random" in loaded_after([one_worker], "numpy.random")
    comparison = (tmp_path / "pooled" / "comparison.csv").read_bytes()
    assert comparison == (tmp_path / "one" / "comparison.csv").read_bytes()


def test_feed_lets_go_of_what_it_has_counted():
    # one full chunk of bright candidates, fed and counted at once: each
    # detector's pre-feed buffer goes once merged. Pinned by the views
    # handed to an edge search, the new allocations peaked at ~1.97x the
    # candidates' bytes; they take ~1.31x
    src = SourceConfig(mean_photon_number=1.0, slot_rate=CHUNK_SLOTS / 0.05, duration=0.05, seed=7)
    detectors = DetectorConfig(0.5)
    [(clicks, _)] = _simulate_chunk(src, detectors, [RoutingModel.CLASSICAL], 0)
    candidates = sum(t.nbytes for t in clicks.values())
    [events] = merged_chunks([clicks], dark_events(detectors, src.duration, substream(7, STREAM_DARK)), [_END])
    del clicks
    side = _ClickSide(detectors.dead_time_ps, CcuConfig(5_000, src.duration))
    assert traced_peak(side.feed, events) < 1.5 * candidates
    assert not events and sum(side.counts["singles"].values()) > 0


def test_chunk_job_lets_go_of_what_it_has_counted(monkeypatch):
    # one full chunk of bright candidates, the whole of a one-chunk run,
    # merged with its darks and counted in the job, its draw taken as done:
    # the bound feed keeps above
    src = SourceConfig(mean_photon_number=1.0, slot_rate=CHUNK_SLOTS / 0.05, duration=0.05, seed=7)
    detectors = DetectorConfig(0.5)
    [(clicks, _)] = _simulate_chunk(src, detectors, [RoutingModel.CLASSICAL], 0)
    candidates = sum(t.nbytes for t in clicks.values())
    dark = dark_events(detectors, src.duration, substream(7, STREAM_DARK))
    monkeypatch.setattr(importlib.import_module("bunchsim.simulate"), "_simulate_chunk", lambda *args: [(clicks, 0)])
    counted = []

    def job():
        counted.extend(_chunk_job(src, detectors, [RoutingModel.CLASSICAL], CcuConfig(5_000, src.duration), False,
                                  (_START, _END), [dark], 0))

    assert traced_peak(job) < 1.5 * candidates
    [(head, interior, tail, _)] = counted
    assert not clicks and not any(t.size for t in (*head.values(), *tail.values()))
    assert sum(interior.tally.singles.values()) > 0 and interior.piece is None


def test_a_chunks_count_never_raises_its_draws_peak():
    # bright-replay's one chunk (classical, mean 1.0, 0.05 s, seed 11), its
    # events kept for the dump: the draw and the whole job both peak at
    # ~24.9 MiB traced. A _simulate_chunk that yields model by model holds
    # the slot offsets through each count and took the job to ~25.9 MiB;
    # list() measures such a draw whole too
    config = parse_config("", {"model": "classical", "mean_photon_number": 1.0, "acquisition_s": 0.05, "seed": 11}).sim_config()
    src, detectors = config.source, config.detectors
    [span] = _spans(src, detectors)
    dark = dark_events(detectors, src.duration, substream(11, STREAM_DARK))
    draw = traced_peak(lambda: list(_simulate_chunk(src, detectors, [config.model], 0)))
    job = traced_peak(_chunk_job, src, detectors, [config.model], config.ccu, True, span, [dark], 0)
    assert job <= draw + 0.5 * 2**20
