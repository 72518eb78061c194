"""The ``.stream`` read side copies nothing to simulate a frame.

A frame inside one chunk is a pair of read-only views of that mmap'd chunk,
and stays readable after the chunk cache drops the chunk. A frame that
crosses chunk edges hands out per-chunk views one block at a time and
concatenates only when its whole ``refs``/``weights`` are read. Simulating
a frame therefore allocates a block's temporaries, not the frame.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.architectures import PushArchitecture
from repro.core.hierarchy import FRAME_BLOCK, HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.core.push_manager import BudgetedPushArchitecture
from repro.core.streaming import StreamingDriver
from repro.experiments.exp_mrc import _stream_refs
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace, pack_tile_refs
from repro.trace.locality import frame_reuse_distance_histogram
from repro.trace.stream import StreamingTrace, _SpanFrame, save_stream
from repro.trace.trace import FrameTrace, Trace, TraceMeta
from repro.trace.workingset import per_frame_unique_blocks, push_memory_curve

SPACE = AddressSpace([Texture("a", 256, 256), Texture("b", 128, 128)])


def _trace(lengths, seed=3):
    """Random walks over every texture's MIP 0-2 (valid packed refs)."""
    rng = np.random.default_rng(seed)
    frames = []
    for n in lengths:
        tid = np.repeat(rng.integers(SPACE.texture_count, size=n // 64 + 1), 64)[:n]
        mip = np.repeat(rng.integers(3, size=n // 64 + 1), 64)[:n]
        pos = np.cumsum(rng.integers(-1, 2, size=(n, 2)), axis=0)
        refs = pack_tile_refs(tid, mip, np.mod(pos[:, 1], 8), np.mod(pos[:, 0], 8))
        weights = rng.integers(1, 5, size=n).astype(np.int64)
        frames.append(FrameTrace(refs, weights, int(weights.sum())))
    meta = TraceMeta("views", 16, 16, "point", len(frames))
    return Trace(meta=meta, frames=frames, textures=SPACE.textures)


class TestViews:
    def test_frame_in_one_chunk_is_a_read_only_view(self, tmp_path):
        # Chunks of 100 entries: frame 1 sits inside chunk 1, frames 3-7
        # fill chunks 2-6.
        trace = _trace([100, 60, 40, 100, 100, 100, 100, 100])
        path = tmp_path / "t.stream"
        save_stream(trace, path, chunk_refs=100)
        st = StreamingTrace(path)
        frame = st.frames[1]
        assert not frame.refs.flags.writeable
        assert not frame.weights.flags.writeable
        assert np.shares_memory(st._chunks.get("refs", 1), frame.refs)
        assert np.shares_memory(st._chunks.get("weights", 1), frame.weights)
        with pytest.raises(ValueError):
            frame.refs[0] = 0
        # Touch every other chunk: the cache (4 entries) evicts chunk 1.
        for f in st.frames[3:]:
            assert len(f.refs) == len(f.weights) == 100
        assert "refs_00001.npy" not in st._chunks._cache
        np.testing.assert_array_equal(frame.refs, trace.frames[1].refs)
        np.testing.assert_array_equal(frame.weights, trace.frames[1].weights)

    def test_spanning_frame_blocks_are_chunk_views(self, tmp_path):
        trace = _trace([30, 250, 0])
        path = tmp_path / "t.stream"
        save_stream(trace, path, chunk_refs=64)
        st = StreamingTrace(path)
        frame = st.frames[1]  # stream entries [30, 280): chunks 0-4
        blocks = []
        pos = 30
        for refs, weights in frame.blocks(40):
            assert 0 < len(refs) == len(weights) <= 40
            ci = pos // 64
            assert (pos + len(refs) - 1) // 64 == ci, "a block crossed a chunk edge"
            assert np.shares_memory(st._chunks.get("refs", ci), refs)
            assert np.shares_memory(st._chunks.get("weights", ci), weights)
            assert not refs.flags.writeable
            blocks.append((refs.copy(), weights.copy()))
            pos += len(refs)
        assert pos == 280
        np.testing.assert_array_equal(
            np.concatenate([r for r, _ in blocks]), trace.frames[1].refs
        )
        np.testing.assert_array_equal(
            np.concatenate([w for _, w in blocks]), trace.frames[1].weights
        )
        # Whole-frame consumers still get the frame as one array.
        np.testing.assert_array_equal(frame.refs, trace.frames[1].refs)
        np.testing.assert_array_equal(frame.weights, trace.frames[1].weights)
        assert frame.texel_reads == trace.frames[1].texel_reads
        empty = list(st.frames[2].blocks(40))
        assert len(empty) == 1 and len(empty[0][0]) == 0


def test_per_frame_unique_readers_never_concatenate(tmp_path, monkeypatch):
    """Working-set, frame-distance and push/streaming accounting dedupe a
    chunk-spanning frame chunk by chunk, never reading its whole arrays;
    ``exp_mrc`` counts its refs the same way."""
    trace = _trace([30, 250, 10, 140])
    path = tmp_path / "t.stream"
    save_stream(trace, path, chunk_refs=64)
    st = StreamingTrace(path)
    assert isinstance(st.frames[1], _SpanFrame)

    def whole(self):
        raise AssertionError("a whole span frame was read")

    monkeypatch.setattr(_SpanFrame, "refs", property(whole))
    monkeypatch.setattr(_SpanFrame, "weights", property(whole))

    for tile in (4, 16):
        for got, want in zip(
            per_frame_unique_blocks(st, tile), per_frame_unique_blocks(trace, tile)
        ):
            np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(push_memory_curve(st), push_memory_curve(trace))
    assert _stream_refs(st) == sum(len(f.refs) for f in trace.frames) == 430
    assert frame_reuse_distance_histogram(st) == frame_reuse_distance_histogram(
        trace
    )
    assert PushArchitecture().run(st) == PushArchitecture().run(trace)
    budget = SPACE.textures[1].host_bytes + 1
    a = BudgetedPushArchitecture(budget).run(st)
    b = BudgetedPushArchitecture(budget).run(trace)
    np.testing.assert_array_equal(a.download_bytes, b.download_bytes)
    np.testing.assert_array_equal(a.resident_bytes, b.resident_bytes)
    assert a.overflow_frames == b.overflow_frames
    config = HierarchyConfig(
        l1=L1CacheConfig(size_bytes=512),
        l2=L2CacheConfig(size_bytes=64 * 1024, l2_tile_texels=16),
    )
    runs = [
        StreamingDriver(MultiLevelTextureCache(config, SPACE), 1).run_trace(t)
        for t in (st, trace)
    ]
    assert runs[0] == runs[1]


def test_simulating_a_frame_allocates_less_than_the_frame(tmp_path):
    """A frame of 8 blocks, spanning 5 chunks, simulates in block memory."""
    n = 8 * FRAME_BLOCK
    trace = _trace([1000, n])
    path = tmp_path / "t.stream"
    save_stream(trace, path, chunk_refs=FRAME_BLOCK * 2)
    st = StreamingTrace(path)
    config = HierarchyConfig(
        l1=L1CacheConfig(size_bytes=2048),
        l2=L2CacheConfig(size_bytes=128 * 1024, l2_tile_texels=16),
        tlb_entries=16,
    )
    sim = MultiLevelTextureCache(config, SPACE)
    sim.run_frame(st.frames[0])  # warm one-time allocations
    frame_bytes = 2 * 8 * n
    tracemalloc.start()
    try:
        stats = sim.run_frame(st.frames[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.l1_accesses == n
    assert peak < frame_bytes, f"peak {peak} B >= the frame's {frame_bytes} B"
