"""The streamed click side against the whole-stream pass it replaces.

simulate_streams merges, filters and counts each chunk's clicks as the chunk
arrives, holding back only the events a later chunk's jitter could still
precede and the coincidence cluster open at the edge. Counts and registered
streams must equal those of oracles.whole_stream_click_side, which holds
every click of the acquisition at once; memory must follow the chunk, not
the acquisition.
"""

import concurrent.futures
import dataclasses
import importlib
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

from bunchsim import photon_source
from bunchsim.cli_harness import parse_config
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
    the rest to _ClickSide.finish; with no chunks only the darks remain. A
    window up to 30 ps covers most of a chunk, so clusters stay open across
    edges.
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
def test_streamed_click_side_equals_whole_stream_pass(case):
    pieces, watermarks, dark, dead, ccu = case
    ref_streams, ref_tally = whole_stream_click_side(pieces, dark, dead, ccu)
    inputs = []
    # patched per example, since a function-scoped fixture would span them all
    with mock.patch.object(importlib.import_module("bunchsim.simulate"), "apply_dead_time", recording(inputs)):
        counted = []
        side = _ClickSide(dead, ccu, dark, counted.append)
        for clicks, watermark in zip(pieces, watermarks):
            side.feed(dict(clicks), watermark)
        tally = side.finish({})
    assert_same_run(counted, tally, ref_streams, ref_tally)
    assert_filtered_once(inputs, [*(clicks[det] for clicks in pieces for det in Detector), *dark.values()])


@settings(max_examples=200, deadline=None)
@given(click_side_cases())
def test_chunk_jobs_and_click_side_equal_whole_stream_pass(case):
    # each chunk job counts its interior, and the main click side takes the
    # rest; a span starts past every earlier candidate and the earlier
    # watermark, and ends at the chunk's watermark
    pieces, watermarks, dark, dead, ccu = case
    ref_streams, ref_tally = whole_stream_click_side(pieces, dark, dead, ccu)
    spans, start = [], _START
    for clicks, end in zip(pieces, watermarks):
        spans.append((start, end))
        start = max(start, end, *(int(t.max()) + 1 for t in clicks.values() if t.size))
    inputs = []
    with mock.patch.object(importlib.import_module("bunchsim.simulate"), "apply_dead_time", recording(inputs)):
        counted = []
        side = _ClickSide(dead, ccu, dark, counted.append)
        for clicks, (start, end) in zip(pieces, spans):
            span_dark = {det: t[(t >= start) & (t < end)] for det, t in dark.items()}
            copies = {det: t.copy() for det, t in clicks.items()}
            side.take(*_count_interior(copies, span_dark, (start, end), dead, ccu, True), end)
        tally = side.finish({})
    assert_same_run(counted, tally, ref_streams, ref_tally)
    assert_filtered_once(inputs, [*(clicks[det] for clicks in pieces for det in Detector), *dark.values()])


STREAM_CASES = (
    "slots, jitter_ps, dead_time_ps, dark_rate, window_ps",
    [
        (1300, 350.0, 22_000, 1e5, 5_000),  # the presets: jitter far inside a chunk
        (1300, 600_000.0, 0, 1e5, 5_000),  # reach 7.4 us: across one 6.4 us chunk edge, no dead time
        (1300, 3_000_000.0, 10_000_000, 1e5, 5_000),  # reach 37 us: across several edges, dead time beyond a chunk
        (1300, 350.0, 22_000, 1e5, 500_000),  # clusters cut at gaps > 1 us, a few per chunk
        (1300, 350.0, 22_000, 1e5, 2_500_000),  # gaps > 5 us, most of a chunk: no cluster closes
        (0, 350.0, 22_000, 2e10, 5_000),  # no slot, so no chunk: ~1000 darks per detector
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
    records the chunk index of each chunk job it is given."""

    submitted: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
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


def test_a_pooled_run_counts_nothing_in_the_main_process(monkeypatch):
    # dead time and counting run in the pool's jobs, chunk interiors and the
    # events between them alike, so wrappers installed in the main process,
    # as perfbench's tracer installs them, see either every call (one
    # worker) or none (a pool), never a share that depends on the schedule
    calls = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    simulate_module = importlib.import_module("bunchsim.simulate")
    coincidence_module = importlib.import_module("bunchsim.coincidence_unit")
    monkeypatch.setattr(simulate_module, "apply_dead_time", recorded("dead time", apply_dead_time))
    monkeypatch.setattr(coincidence_module, "accumulate", recorded("accumulate", coincidence_module.accumulate))
    source = SourceConfig(mean_photon_number=0.05, slot_rate=1e9, duration=2.5 * CHUNK_SLOTS / 1e9, seed=5)
    config = SimConfig(source, DetectorConfig(0.6, dark_rate=1e5), RoutingModel.CLASSICAL, 5_000)
    pooled = simulate(config, workers=2)
    assert calls == []
    assert list(counter_values(simulate(config))) == list(counter_values(pooled))
    assert {"dead time", "accumulate"} <= set(calls)


def test_only_a_chunks_edges_and_tally_travel_back():
    # block 2, three models, seed 11: the candidates of chunk 3, which the
    # main process counted, pickled to 2 587 498 bytes
    cfg = parse_config("", {"preset": "table1-block2", "model": "classical", "seed": 11})
    configs = [dataclasses.replace(cfg, model=model.value).sim_config() for model in RoutingModel]
    src, detectors, ccu = configs[0].source, configs[0].detectors, configs[0].ccu
    span = _spans(src, detectors)[3]
    dark = dark_events(detectors, src.duration, substream(11, STREAM_DARK))
    span_dark = {det: t[(t >= span[0]) & (t < span[1])] for det, t in dark.items()}
    result = _chunk_job(src, detectors, [c.model for c in configs], ccu, False, span, [span_dark] * len(configs), 3)
    assert all(interior is not None and interior.counted.tally.singles[Detector.A1] for _, interior, _ in result)
    assert len(pickle.dumps(result)) < 64 * 2**10


def test_memory_follows_the_chunk_not_the_acquisition(monkeypatch):
    # whole streams held to the end took ~4x the 4-chunk peak at 40 chunks
    monkeypatch.setattr(photon_source, "CHUNK_SLOTS", 1 << 14)

    def peak(chunks):
        source = SourceConfig(mean_photon_number=0.5, slot_rate=1e7, duration=chunks * (1 << 14) / 1e7, seed=3)
        return traced_peak(simulate, SimConfig(source, DetectorConfig(0.6), RoutingModel.CLASSICAL, 5_000))

    assert peak(40) < 1.3 * peak(4)


def test_held_events_stay_within_a_chunk_when_clusters_close_early_in_it():
    # A1 clicks every 10 ps, so with a 100 ps window the only cluster edges are
    # the 1 ns gaps at the start of each 100 ns chunk, far below its watermark.
    # Searching only near the watermark held the whole acquisition back.
    length, window = 100_000, 100
    pieces = [
        {det: ints(np.arange(i * length + 1_000, (i + 1) * length, 10) if det is Detector.A1 else [])
         for det in Detector}
        for i in range(20)
    ]
    dark = {det: ints([]) for det in Detector}
    ccu = CcuConfig(window, 20 * length * 1e-12)
    counted = []
    side = _ClickSide(0, ccu, dark, counted.append)
    buffered = []
    for i, clicks in enumerate(pieces):
        side.feed(dict(clicks), (i + 1) * length)
        buffered.append(sum(t.size for t in side.raw.values()))
    assert max(buffered) == pieces[0][Detector.A1].size
    assert_same_run(counted, side.finish({}), *whole_stream_click_side(pieces, dark, 0, ccu))


def test_a_run_on_one_worker_loads_no_process_pool(tmp_path):
    # concurrent.futures loads its process pool, and multiprocessing with
    # it, at the first lookup of ProcessPoolExecutor, which only a pool makes
    script = (
        "import sys\n"
        "from bunchsim import cli_harness\n"
        "flags = ['--model', 'classical', '--mean-photon-number', '0.05', '--acquisition-s', '0.001', '--seed', '3']\n"
        f"assert cli_harness.main(['run', *flags, '--workers', '1', '--quiet', '--output-dir', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('multiprocessing')))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "[]"  # after the tally the run prints
    assert (tmp_path / "tally.csv").exists()


def test_feed_lets_go_of_what_it_has_counted():
    # one full chunk of bright candidates, fed and counted at once: each
    # detector's pre-feed buffer goes once its remainder replaces it. Pinned
    # by the views handed to the edge search, the new allocations peaked at
    # ~1.97x the candidates' bytes; they take ~1.31x
    src = SourceConfig(mean_photon_number=1.0, slot_rate=CHUNK_SLOTS / 0.05, duration=0.05, seed=7)
    detectors = DetectorConfig(0.5)
    [(clicks, _)] = _simulate_chunk(src, detectors, [RoutingModel.CLASSICAL], 0)
    candidates = sum(t.nbytes for t in clicks.values())
    side = _ClickSide(detectors.dead_time_ps, CcuConfig(5_000, src.duration), dark_events(detectors, src.duration, substream(7, STREAM_DARK)))
    assert traced_peak(side.feed, clicks, _END) < 1.5 * candidates
    assert not clicks and sum(side.counts["singles"].values()) > 0


def test_chunk_job_lets_go_of_what_it_has_counted():
    # one full chunk of bright candidates, the whole of a one-chunk run,
    # counted in the job: the bound feed keeps above
    src = SourceConfig(mean_photon_number=1.0, slot_rate=CHUNK_SLOTS / 0.05, duration=0.05, seed=7)
    detectors = DetectorConfig(0.5)
    [(clicks, _)] = _simulate_chunk(src, detectors, [RoutingModel.CLASSICAL], 0)
    candidates = sum(t.nbytes for t in clicks.values())
    dark = dark_events(detectors, src.duration, substream(7, STREAM_DARK))
    counted = []

    def job():
        counted.append(_count_interior(clicks, dark, (_START, _END), detectors.dead_time_ps, CcuConfig(5_000, src.duration), False))

    assert traced_peak(job) < 1.5 * candidates
    [(raw, interior)] = counted
    assert not clicks and not any(t.size for t in raw.values())
    assert sum(interior.counted.tally.singles.values()) > 0 and interior.counted.pieces == []
