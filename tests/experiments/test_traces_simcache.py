"""Tests for trace production/caching and simulation memoization."""

import numpy as np
import pytest

from repro.experiments.config import Scale
from repro.experiments.simcache import clear_simulation_cache, run_hierarchy
from repro.experiments.traces import (
    _cache_key,
    clear_memory_cache,
    get_trace,
    render_trace,
)
from repro.texture.sampler import FilterMode
from repro.trace.stream import StreamingTrace

MICRO = Scale(width=64, height=48, frames=2, detail=0.2, name="micro")


class TestRenderTrace:
    def test_renders_requested_shape(self):
        trace = render_trace("city", MICRO, FilterMode.POINT)
        assert trace.meta.workload == "city"
        assert trace.meta.n_frames == 2
        assert len(trace.frames) == 2
        assert trace.meta.filter_mode == "point"

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            render_trace("metropolis", MICRO, FilterMode.POINT)

    def test_variant_names_suffixed(self):
        z = render_trace("city", MICRO, FilterMode.POINT, z_first=True)
        assert z.meta.workload == "city+zfirst"
        t = render_trace("city", MICRO, FilterMode.POINT, tiled=True)
        assert t.meta.workload == "city+tiled"

    def test_deterministic(self):
        a = render_trace("city", MICRO, FilterMode.POINT)
        b = render_trace("city", MICRO, FilterMode.POINT)
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
