"""Tests for parallel trace rendering."""

import numpy as np
import pytest

from repro.experiments.config import Scale
from repro.experiments import traces
from repro.experiments.traces import render_trace_stream, resolve_render_jobs
from repro.texture.sampler import FilterMode

MICRO = Scale(width=64, height=48, frames=4, detail=0.2, name="micro")


class TestParallelRender:
    def test_parallel_identical_to_serial(self, tmp_path):
        serial = render_trace_stream(
            "city", MICRO, FilterMode.POINT, tmp_path / "s.stream", workers=1
        )
        parallel = render_trace_stream(
            "city", MICRO, FilterMode.POINT, tmp_path / "p.stream", workers=2
        )
        assert serial.meta == parallel.meta
        for a, b in zip(serial.frames, parallel.frames):
            assert np.array_equal(a.refs, b.refs)
            assert np.array_equal(a.weights, b.weights)
            assert a.n_fragments == b.n_fragments
            assert np.array_equal(a.object_offsets, b.object_offsets)
        # Byte-identical directories: every file, manifest CRCs included.
        names = sorted(p.name for p in serial.path.iterdir())
        assert names == sorted(p.name for p in parallel.path.iterdir())
        for name in names:
            assert (serial.path / name).read_bytes() == (
                parallel.path / name
            ).read_bytes()

    def test_parallel_frames_outlive_the_scratch_stream(self, tmp_path):
        # The supervised path renders shards into scratch streams next to
        # the destination and deletes them after the merge; the returned
        # frames are views of the merged stream, so they must still read.
        parallel = render_trace_stream(
            "city", MICRO, FilterMode.POINT, tmp_path / "p.stream", workers=2
        )
        assert [p.name for p in tmp_path.iterdir()] == ["p.stream"]
        serial = render_trace_stream(
            "city", MICRO, FilterMode.POINT, tmp_path / "s.stream", workers=1
        )
        for a, b in zip(serial.frames, parallel.frames):
            assert np.array_equal(a.refs, b.refs)
            assert np.array_equal(a.weights, b.weights)

    def test_more_workers_than_frames(self, tmp_path):
        trace = render_trace_stream(
            "city", MICRO, FilterMode.POINT, tmp_path / "t.stream", workers=16
        )
        assert trace.meta.n_frames == MICRO.frames

    def test_variants_supported(self, tmp_path):
        trace = render_trace_stream(
            "city", MICRO, FilterMode.POINT, tmp_path / "t.stream",
            z_first=True, workers=2,
        )
        assert trace.meta.workload == "city+zfirst"

    def test_env_default(self, monkeypatch):
        monkeypatch.setattr(traces, "available_cpus", lambda: 8)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_render_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert resolve_render_jobs() == 6
