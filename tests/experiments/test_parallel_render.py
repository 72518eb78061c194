"""Tests for parallel trace rendering."""

import os
import tempfile

import numpy as np
import pytest

from repro.experiments.config import Scale
from repro.experiments import traces
from repro.experiments.traces import render_trace, resolve_render_jobs
from repro.texture.sampler import FilterMode

MICRO = Scale(width=64, height=48, frames=4, detail=0.2, name="micro")


class TestParallelRender:
    def test_parallel_identical_to_serial(self):
        serial = render_trace("city", MICRO, FilterMode.POINT, workers=1)
        parallel = render_trace("city", MICRO, FilterMode.POINT, workers=2)
        assert serial.meta == parallel.meta
        for a, b in zip(serial.frames, parallel.frames):
            assert np.array_equal(a.refs, b.refs)
            assert np.array_equal(a.weights, b.weights)
            assert a.n_fragments == b.n_fragments
            assert np.array_equal(a.object_offsets, b.object_offsets)

    def test_parallel_frames_outlive_the_scratch_stream(self, monkeypatch):
        # Stream frames are views of mmap'd chunks; the supervised path
        # deletes its scratch stream, so its frames must own copies.
        made = []
        mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(*args, **kwargs):
            made.append(mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        parallel = render_trace("city", MICRO, FilterMode.POINT, workers=2)
        monkeypatch.undo()
        assert made and not any(os.path.exists(d) for d in made)
        serial = render_trace("city", MICRO, FilterMode.POINT, workers=1)
        for a, b in zip(serial.frames, parallel.frames):
            for arr in (b.refs, b.weights):
                assert arr.flags.owndata
            assert np.array_equal(a.refs, b.refs)
            assert np.array_equal(a.weights, b.weights)

    def test_more_workers_than_frames(self):
        trace = render_trace("city", MICRO, FilterMode.POINT, workers=16)
        assert trace.meta.n_frames == MICRO.frames

    def test_variants_supported(self):
        trace = render_trace(
            "city", MICRO, FilterMode.POINT, z_first=True, workers=2
        )
        assert trace.meta.workload == "city+zfirst"

    def test_env_default(self, monkeypatch):
        monkeypatch.setattr(traces, "available_cpus", lambda: 8)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_render_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert resolve_render_jobs() == 6
