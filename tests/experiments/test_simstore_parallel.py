"""Tests for the persistent simulation store and the parallel sweep engine."""

import numpy as np
import pytest

from repro.core.hierarchy import MultiLevelTextureCache, TraceRunResult
from repro.errors import ConfigError, CorruptSimCacheWarning
from repro.experiments import simstore
from repro.experiments.config import Scale
from repro.experiments.parallel import default_jobs, simulate_many
from repro.experiments.simcache import (
    build_config,
    clear_simulation_cache,
    prewarm,
    run_hierarchy,
    simulate,
)
from repro.experiments.traces import get_trace
from repro.reliability.transfer import FrameTransferStats
from repro.texture.sampler import FilterMode

MICRO = Scale(width=64, height=48, frames=2, detail=0.2, name="micro")


@pytest.fixture
def fresh_store(isolated_sim_cache):
    clear_simulation_cache()
    simstore.clear()
    yield isolated_sim_cache
    clear_simulation_cache()
    simstore.clear()


def micro_trace():
    return get_trace("city", MICRO, FilterMode.POINT)


def simulate_directly(trace, config):
    return MultiLevelTextureCache(config, trace.address_space).run_trace(trace)


class TestStoreRoundTrip:
    def test_full_hierarchy_result_round_trips(self, fresh_store):
        trace = micro_trace()
        config = build_config(l1_bytes=2048, l2_bytes=128 * 1024, tlb_entries=4)
        result = simulate_directly(trace, config)
        path = simstore.save(trace, config, result)
        assert path is not None and path.is_file()
        loaded = simstore.load(trace, config)
        assert loaded is not None
        assert loaded.config == config
        assert loaded.frames == result.frames

    def test_transfer_columns_round_trip(self, fresh_store):
        trace = micro_trace()
        config = build_config(l1_bytes=2048, l2_bytes=128 * 1024)
        result = simulate_directly(trace, config)
        for i, frame in enumerate(result.frames):
            frame.transfer = FrameTransferStats(
                requested_blocks=10 + i,
                retried_transfers=i,
                retry_bytes=64 * i,
                stale_blocks=i % 2,
                latency_spikes=i,
                backoff_us=1.5 * i,
            )
        simstore.save(trace, config, result)
        loaded = simstore.load(trace, config)
        assert loaded is not None
        assert loaded.frames == result.frames

    def test_distinct_configs_get_distinct_entries(self, fresh_store):
        trace = micro_trace()
        a = build_config(l1_bytes=2048)
        b = build_config(l1_bytes=4096)
        assert simstore.entry_path(trace, a) != simstore.entry_path(trace, b)
        simstore.save(trace, a, simulate_directly(trace, a))
        assert simstore.load(trace, b) is None

    def test_store_off(self, fresh_store, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE", "off")
        trace = micro_trace()
        config = build_config(l1_bytes=2048)
        assert simstore.entry_path(trace, config) is None
        assert simstore.save(trace, config, simulate_directly(trace, config)) is None
        assert simstore.load(trace, config) is None


class TestConcurrentWriters:
    def test_save_dedupes_existing_entry(self, fresh_store):
        trace = micro_trace()
        config = build_config(l1_bytes=2048, l2_bytes=128 * 1024)
        result = simulate_directly(trace, config)
        path = simstore.save(trace, config, result)
        before = path.read_bytes()
        stat = path.stat()
        # A second (concurrent) writer finds the entry present and skips
        # the write entirely: same path back, file untouched.
        again = simstore.save(trace, config, result)
        assert again == path
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        assert path.read_bytes() == before

    def test_racing_writers_produce_identical_bytes(self, fresh_store):
        # Two workers racing through the dedupe window both write; the
        # writer is byte-deterministic, so the atomic rename is harmless
        # whichever lands last.
        trace = micro_trace()
        config = build_config(l1_bytes=2048, l2_bytes=128 * 1024)
        result = simulate_directly(trace, config)
        path = simstore.save(trace, config, result)
        before = path.read_bytes()
        simstore.save(trace, config, result, dedupe=False)
        assert path.read_bytes() == before
        assert simstore.load(trace, config).frames == result.frames

    def test_quarantine_race_is_silent_when_peer_won(self, fresh_store):
        import warnings

        trace = micro_trace()
        config = build_config(l1_bytes=2048)
        simstore.save(trace, config, simulate_directly(trace, config))
        path = simstore.entry_path(trace, config)
        path.unlink()  # a concurrent worker already quarantined the entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            simstore._quarantine(path, "checksum mismatch")


class TestCorruptionHandling:
    def _stored_entry(self, fresh_store):
        trace = micro_trace()
        config = build_config(l1_bytes=2048, l2_bytes=128 * 1024, tlb_entries=4)
        result = simulate_directly(trace, config)
        path = simstore.save(trace, config, result)
        return trace, config, result, path

    def test_bitflip_quarantined_and_resimulated(self, fresh_store):
        import zipfile

        trace, config, result, path = self._stored_entry(fresh_store)
        # Flip bits inside one member's compressed payload (a flip in zip
        # padding would go unnoticed by design — it is never read).
        with zipfile.ZipFile(path) as z:
            info = z.getinfo("l1_misses.npy")
            start = info.header_offset + 30 + len(info.filename) + len(info.extra)
        raw = bytearray(path.read_bytes())
        for i in range(start, min(start + info.compress_size, len(raw))):
            raw[i] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.warns(CorruptSimCacheWarning):
            assert simstore.load(trace, config) is None
        assert not path.exists()  # moved out of the store
        assert list((fresh_store / "quarantine").iterdir())
        # The memoizing layer recovers transparently.
        fresh = simulate(trace, config)
        assert fresh.frames == result.frames

    def test_truncated_file_quarantined(self, fresh_store):
        trace, config, _, path = self._stored_entry(fresh_store)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.warns(CorruptSimCacheWarning):
            assert simstore.load(trace, config) is None
        assert not path.exists()

    def test_config_mismatch_inside_entry_rejected(self, fresh_store):
        # An entry whose embedded manifest disagrees with the requested
        # config (e.g. digest collision or tampering) must not be served.
        trace, config, result, path = self._stored_entry(fresh_store)
        other = build_config(l1_bytes=4096)
        path.rename(simstore.entry_path(trace, other))
        with pytest.warns(CorruptSimCacheWarning):
            assert simstore.load(trace, other) is None


class TestParallelSweep:
    def _points(self):
        trace = micro_trace()
        return [
            (trace, build_config(l1_bytes=l1, l2_bytes=l2))
            for l1 in (1024, 2048)
            for l2 in (None, 64 * 1024, 128 * 1024)
        ]

    def test_parallel_matches_serial(self, fresh_store):
        points = self._points()
        serial = [simulate_directly(t, c) for t, c in points]
        parallel = simulate_many(points, jobs=4)
        for s, p in zip(serial, parallel):
            assert s.frames == p.frames

    def test_serial_sweep_runs_grouped_by_trace_and_l1(
        self, fresh_store, monkeypatch
    ):
        """Config-major points over two traces run grouped by (trace, L1),
        in first-appearance order, and come back in the caller's order."""
        from repro.experiments import parallel

        traces = [micro_trace(), get_trace("village", MICRO, FilterMode.POINT)]
        points = [
            (trace, build_config(l1_bytes=l1, l2_bytes=l2))
            for l2 in (None, 64 * 1024)
            for l1 in (2048, 1024)
            for trace in traces
        ]
        ran = []
        inner = parallel._simulate_point

        def logged(trace, config):
            ran.append((trace, config))
            return inner(trace, config)

        monkeypatch.setattr(parallel, "_simulate_point", logged)
        results = simulate_many(points, jobs=1)
        keys = [(id(t), c.l1) for t, c in points]
        groups = list(dict.fromkeys(keys))
        assert [(id(t), c.l1) for t, c in ran] == sorted(keys, key=groups.index)
        for (trace, config), result in zip(points, results):
            assert result.frames == simulate_directly(trace, config).frames

    def test_results_persisted_and_reused(self, fresh_store):
        points = self._points()
        simulate_many(points, jobs=4)
        entries = list(fresh_store.glob("sim_*.npz"))
        assert len(entries) == len(points)
        # Second resolution is served purely from disk: no new entries,
        # identical payloads.
        again = simulate_many(points, jobs=1)
        assert len(list(fresh_store.glob("sim_*.npz"))) == len(points)
        for s, p in zip(again, simulate_many(points, jobs=4)):
            assert s.frames == p.frames

    def test_prewarm_fills_memo(self, fresh_store):
        points = self._points()
        prewarm(points, jobs=2)
        for trace, config in points:
            before = simulate(trace, config)
            assert simulate(trace, config) is before
            assert isinstance(before, TraceRunResult)

    def test_run_hierarchy_served_from_store_across_sessions(self, fresh_store):
        trace = micro_trace()
        a = run_hierarchy(trace, l1_bytes=2048, l2_bytes=128 * 1024)
        clear_simulation_cache()  # simulate a fresh CLI invocation
        b = run_hierarchy(trace, l1_bytes=2048, l2_bytes=128 * 1024)
        assert a is not b
        assert a.frames == b.frames

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6
        # An unparsable value is a loud ConfigError, not a silent fallback.
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        with pytest.raises(ConfigError):
            default_jobs()
