"""Tests for trace production/caching and simulation memoization."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import traces
from repro.experiments.config import Scale
from repro.experiments.simcache import clear_simulation_cache, run_hierarchy
from repro.experiments.traces import (
    _cache_key,
    clear_memory_cache,
    get_trace,
    render_trace_stream,
)
from repro.texture.sampler import FilterMode
from repro.trace.stream import StreamingTrace

MICRO = Scale(width=64, height=48, frames=2, detail=0.2, name="micro")


class TestRenderTrace:
    def test_renders_requested_shape(self, tmp_path):
        trace = render_trace_stream(
            "city", MICRO, FilterMode.POINT, tmp_path / "t.stream"
        )
        assert trace.path == tmp_path / "t.stream"
        assert trace.meta.workload == "city"
        assert trace.meta.n_frames == 2
        assert len(trace.frames) == 2
        assert trace.meta.filter_mode == "point"

    def test_unknown_workload(self, tmp_path):
        with pytest.raises(ValueError):
            render_trace_stream(
                "metropolis", MICRO, FilterMode.POINT, tmp_path / "t.stream"
            )
        assert list(tmp_path.iterdir()) == []

    def test_variant_names_suffixed(self, tmp_path):
        z = render_trace_stream(
            "city", MICRO, FilterMode.POINT, tmp_path / "z.stream", z_first=True
        )
        assert z.meta.workload == "city+zfirst"
        t = render_trace_stream(
            "city", MICRO, FilterMode.POINT, tmp_path / "t.stream", tiled=True
        )
        assert t.meta.workload == "city+tiled"

    def test_deterministic(self, tmp_path):
        a = render_trace_stream("city", MICRO, FilterMode.POINT, tmp_path / "a")
        b = render_trace_stream("city", MICRO, FilterMode.POINT, tmp_path / "b")
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.refs, fb.refs)


class TestGetTraceCaching:
    def test_memory_cache_returns_same_object(self):
        a = get_trace("city", MICRO, FilterMode.POINT)
        b = get_trace("city", MICRO, FilterMode.POINT)
        assert a is b

    def test_disk_cache_roundtrip(self, isolated_trace_cache):
        get_trace("city", MICRO, FilterMode.POINT)
        entry = isolated_trace_cache / (
            _cache_key("city", MICRO, FilterMode.POINT, False, False) + ".stream"
        )
        assert (entry / "manifest.json").exists()  # persisted as a stream
        clear_memory_cache()
        reloaded = get_trace("city", MICRO, FilterMode.POINT)
        assert reloaded.meta.workload == "city"
        assert reloaded.fingerprint() == StreamingTrace(entry).fingerprint()

    def test_variants_cached_separately(self):
        a = get_trace("city", MICRO, FilterMode.POINT)
        b = get_trace("city", MICRO, FilterMode.POINT, z_first=True)
        assert a is not b
        assert b.meta.workload == "city+zfirst"

    def test_cache_off(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        clear_memory_cache()
        trace = get_trace("city", MICRO, FilterMode.POINT)
        assert trace.meta.workload == "city"
        clear_memory_cache()

    def test_cold_get_returns_the_cache_slot(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        clear_memory_cache()
        try:
            trace = get_trace("city", MICRO, FilterMode.POINT)
        finally:
            clear_memory_cache()
        assert isinstance(trace, StreamingTrace)
        assert trace.path == tmp_path / (
            _cache_key("city", MICRO, FilterMode.POINT, False, False) + ".stream"
        )
        # Every frame lies in the one chunk, so it is a view of the slot's
        # mmap'd chunk, not a copy.
        assert trace.n_chunks == 1
        for frame in trace.frames:
            assert not frame.refs.flags.owndata
            assert not frame.weights.flags.owndata

    def test_cache_off_leaves_the_cache_dirs_alone(
        self, monkeypatch, tmp_path, isolated_trace_cache
    ):
        dirs = (
            isolated_trace_cache,
            Path(traces.__file__).resolve().parents[3] / ".trace_cache",
        )

        def listing():
            return [sorted(os.listdir(d)) if d.exists() else None for d in dirs]

        before = listing()
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        clear_memory_cache()
        try:
            trace = get_trace("city", MICRO, FilterMode.POINT, tiled=True)
        finally:
            clear_memory_cache()
        assert listing() == before
        assert trace.path.parent not in dirs
        want = render_trace_stream(
            "city", MICRO, FilterMode.POINT, tmp_path / "t.stream", tiled=True
        )
        assert trace.fingerprint() == want.fingerprint()
        for a, b in zip(trace.frames, want.frames):
            assert np.array_equal(a.refs, b.refs)


class TestSimCache:
    def test_memoizes_identical_config(self):
        trace = get_trace("city", MICRO, FilterMode.POINT)
        clear_simulation_cache()
        a = run_hierarchy(trace, l1_bytes=2048)
        b = run_hierarchy(trace, l1_bytes=2048)
        assert a is b

    def test_distinct_configs_not_conflated(self):
        trace = get_trace("city", MICRO, FilterMode.POINT)
        a = run_hierarchy(trace, l1_bytes=2048)
        b = run_hierarchy(trace, l1_bytes=16384)
        assert a is not b
        assert b.l1_hit_rate >= a.l1_hit_rate

    def test_l2_and_tlb_options(self):
        trace = get_trace("city", MICRO, FilterMode.POINT)
        res = run_hierarchy(trace, l1_bytes=2048, l2_bytes=128 * 1024,
                            tlb_entries=4)
        assert res.config.l2 is not None
        assert res.frames[0].tlb is not None
