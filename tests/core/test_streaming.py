"""Tests for the texture streaming driver (§5.2 deallocation under load)."""

import numpy as np
import pytest

from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.core.streaming import StreamingDriver
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace, pack_tile_refs
from repro.trace.trace import FrameTrace, Trace, TraceMeta

from tests.oracle import reference_hierarchy


def make_sim(space, l2_blocks=16):
    return MultiLevelTextureCache(
        HierarchyConfig(
            l1=L1CacheConfig(size_bytes=2048),
            l2=L2CacheConfig(size_bytes=l2_blocks * 1024, l2_tile_texels=16),
        ),
        space,
    )


def trace_of(space, frame_tids):
    frames = []
    for tids in frame_tids:
        refs = pack_tile_refs(
            np.array(tids, dtype=np.int64), 0,
            np.zeros(len(tids), dtype=np.int64),
            np.zeros(len(tids), dtype=np.int64),
        )
        frames.append(FrameTrace(refs, np.ones(len(tids), dtype=np.int64),
                                 len(tids)))
    return Trace(TraceMeta("s", 8, 8, "point", len(frames)), frames,
                 space.textures)


@pytest.fixture
def space():
    return AddressSpace([Texture("a", 64, 64), Texture("b", 64, 64)])


class TestValidation:
    def test_requires_l2(self, space):
        pull = MultiLevelTextureCache(
            HierarchyConfig(l1=L1CacheConfig(size_bytes=2048)), space
        )
        with pytest.raises(ValueError):
            StreamingDriver(pull, idle_frames=2)

    def test_requires_positive_idle(self, space):
        with pytest.raises(ValueError):
            StreamingDriver(make_sim(space), idle_frames=0)


class TestStreaming:
    def test_idle_texture_deleted(self, space):
        # Texture 1 used in frame 0 only; with idle_frames=2 it is deleted
        # after frame 2.
        trace = trace_of(space, [[0, 1], [0], [0], [0]])
        res = StreamingDriver(make_sim(space), idle_frames=2).run_trace(trace)
        deleted = [f.deleted_tids for f in res.frames]
        assert deleted[2] == [1]
        assert res.total_blocks_released >= 1

    def test_active_texture_never_deleted(self, space):
        trace = trace_of(space, [[0], [0], [0], [0], [0]])
        res = StreamingDriver(make_sim(space), idle_frames=2).run_trace(trace)
        assert res.total_deletes == 0

    def test_reload_counts_and_pays_misses(self, space):
        # Texture 1: used, idle long enough to be deleted, then used again.
        # The return visit touches a *different* L1 tile of the same L2
        # block, so it must go through the L2 (the original tile could
        # still sit in L1 — inclusion is not guaranteed) and finds the
        # block deallocated: a full miss where an undeleted texture would
        # have scored a partial hit.
        frames = [[0, 1], [0], [0], [0]]
        trace = trace_of(space, frames)
        last_refs = pack_tile_refs(
            np.array([0, 1], dtype=np.int64), 0,
            np.zeros(2, dtype=np.int64), np.array([0, 1], dtype=np.int64),
        )
        trace.frames.append(
            FrameTrace(last_refs, np.ones(2, dtype=np.int64), 2)
        )
        trace.meta = TraceMeta("s", 8, 8, "point", len(trace.frames))

        res = StreamingDriver(make_sim(space), idle_frames=2).run_trace(trace)
        assert res.total_deletes == 1
        assert res.total_reloads == 1
        last = res.frames[-1]
        assert last.cache.l2.full_misses >= 1

        # Without streaming the same access is only a partial hit.
        base = make_sim(space).run_trace(trace)
        assert base.frames[-1].l2.full_misses == 0

    def test_no_streaming_when_threshold_huge(self, space):
        trace = trace_of(space, [[0, 1], [0], [0], [0]])
        res = StreamingDriver(make_sim(space), idle_frames=100).run_trace(trace)
        assert res.total_deletes == 0

    def test_streaming_differential_batched_vs_reference(self, space):
        # Deletion/reload churn drives the vectorized deallocate_texture
        # and the batched kernels through eviction-heavy, non-contiguous
        # residency states; every frame must match the reference loops.
        rng = np.random.default_rng(5)
        patterns = [[0, 1], [0], [0], [0, 1], [1], [1], [1], [0], [0, 1], [1]]
        frames = []
        for tids in patterns:
            refs_parts = []
            for tid in tids:
                n = int(rng.integers(4, 30))
                refs_parts.append(
                    pack_tile_refs(
                        np.full(n, tid, dtype=np.int64),
                        0,
                        rng.integers(0, 16, n),
                        rng.integers(0, 16, n),
                    )
                )
            refs = np.concatenate(refs_parts)
            frames.append(FrameTrace(refs, np.ones(len(refs), dtype=np.int64), len(refs)))
        trace = Trace(TraceMeta("s", 8, 8, "point", len(frames)), frames, space.textures)

        config = HierarchyConfig(
            l1=L1CacheConfig(size_bytes=2048),
            l2=L2CacheConfig(size_bytes=4 * 1024, l2_tile_texels=16),
            tlb_entries=4,
        )
        ref_sim = reference_hierarchy(config, space)
        bat_sim = MultiLevelTextureCache(config, space)
        ref = StreamingDriver(ref_sim, idle_frames=2).run_trace(trace)
        bat = StreamingDriver(bat_sim, idle_frames=2).run_trace(trace)
        for rf, bf in zip(ref.frames, bat.frames):
            assert rf.cache == bf.cache
            assert rf.deleted_tids == bf.deleted_tids
            assert rf.blocks_released == bf.blocks_released
            assert rf.reloaded_tids == bf.reloaded_tids
        np.testing.assert_array_equal(ref_sim.l2._t_block, bat_sim.l2._t_block)
        np.testing.assert_array_equal(ref_sim.l2._t_sectors, bat_sim.l2._t_sectors)
        assert ref_sim.l2._free == bat_sim.l2._free
        assert ref.total_deletes > 0 and ref.total_reloads > 0

    def test_streaming_bandwidth_at_least_baseline(self, space):
        """Deleting and reloading can only add AGP traffic."""
        trace = trace_of(space, [[0, 1], [0], [0], [0, 1], [0, 1]])
        base = make_sim(space).run_trace(trace)
        res = StreamingDriver(make_sim(space), idle_frames=2).run_trace(trace)
        assert res.mean_agp_bytes_per_frame >= np.mean(
            [f.agp_bytes for f in base.frames]
        ) - 1e-9
