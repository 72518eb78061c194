"""Tests for trace containers and persistence."""

import numpy as np
import pytest

from repro.texture.texture import Texture
from repro.trace.trace import FrameTrace, Trace, TraceMeta
from repro.trace.stream import StreamingTrace, save_stream


def make_trace(n_frames=3):
    textures = [Texture("a", 64, 64, original_depth_bits=16),
                Texture("b", 32, 32, original_depth_bits=32)]
    frames = []
    rng = np.random.default_rng(0)
    for i in range(n_frames):
        n = 5 + i
        frames.append(
            FrameTrace(
                refs=rng.integers(0, 1000, n).astype(np.int64),
                weights=rng.integers(1, 5, n).astype(np.int64),
                n_fragments=n * 3,
            )
        )
    meta = TraceMeta("village", 320, 240, "bilinear", n_frames)
    return Trace(meta=meta, frames=frames, textures=textures)


class TestFrameTrace:
    def test_texel_reads_sums_weights(self):
        f = FrameTrace(np.array([1, 2]), np.array([3, 4]), n_fragments=7)
        assert f.texel_reads == 7

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            FrameTrace(np.array([1, 2]), np.array([1]), n_fragments=2)


class TestTrace:
    def test_frame_count_validated(self):
        t = make_trace()
        with pytest.raises(ValueError):
            Trace(meta=t.meta, frames=t.frames[:-1], textures=t.textures)

    def test_address_space_lazy_and_cached(self):
        t = make_trace()
        assert t.address_space is t.address_space
        assert t.address_space.texture_count == 2

    def test_totals(self):
        t = make_trace()
        assert t.total_texel_reads() == sum(f.texel_reads for f in t.frames)
        assert t.pixels_per_frame == 320 * 240


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        t = make_trace()
        path = tmp_path / "t.stream"
        save_stream(t, path)
        loaded = StreamingTrace(path)
        assert loaded.meta == t.meta
        assert len(loaded.frames) == len(t.frames)
        for a, b in zip(loaded.frames, t.frames):
            assert np.array_equal(a.refs, b.refs)
            assert np.array_equal(a.weights, b.weights)
            assert a.n_fragments == b.n_fragments
        assert [tex.name for tex in loaded.textures] == ["a", "b"]
        assert loaded.textures[1].original_depth_bits == 32

    def test_texture_geometry_survives(self, tmp_path):
        t = make_trace()
        path = tmp_path / "t.stream"
        save_stream(t, path)
        loaded = StreamingTrace(path)
        assert loaded.textures[0].level_count == t.textures[0].level_count
        assert loaded.textures[0].host_bytes == t.textures[0].host_bytes

    def test_version_check(self, tmp_path):
        import repro.trace.stream as stream

        t = make_trace()
        path = tmp_path / "t.stream"
        old = stream.STREAM_VERSION
        try:
            stream.STREAM_VERSION = old + 1
            save_stream(t, path)
        finally:
            stream.STREAM_VERSION = old
        with pytest.raises(ValueError):
            StreamingTrace(path)

    def test_empty_frames_roundtrip(self, tmp_path):
        textures = [Texture("a", 16, 16)]
        frames = [FrameTrace(np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=np.int64), 0)]
        t = Trace(TraceMeta("x", 8, 8, "point", 1), frames, textures)
        path = tmp_path / "e.stream"
        save_stream(t, path)
        loaded = StreamingTrace(path)
        assert loaded.frames[0].texel_reads == 0
