"""End-to-end integration: render -> trace -> persist -> simulate.

These tests run the entire study pipeline at micro scale and check the
cross-layer contracts the experiments rely on.
"""

import numpy as np
import pytest

from repro.core.architectures import (
    L2CachingArchitecture,
    PullArchitecture,
    PushArchitecture,
)
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.experiments.config import Scale
from repro.experiments.traces import render_trace_stream
from repro.texture.sampler import FilterMode
from repro.trace.stats import workload_stats
from repro.trace.stream import StreamingTrace, save_stream
from repro.trace.workingset import l2_memory_curve, push_memory_curve

MICRO = Scale(width=96, height=72, frames=4, detail=0.25, name="micro")


@pytest.fixture(scope="module")
def village_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "village.stream"
    return render_trace_stream("village", MICRO, FilterMode.BILINEAR, path)


class TestPipelineContracts:
    def test_fragments_imply_reads(self, village_trace):
        for frame in village_trace.frames:
            assert frame.texel_reads == frame.n_fragments * 4  # bilinear

    def test_persisted_trace_simulates_identically(self, village_trace, tmp_path):
        path = tmp_path / "v.stream"
        save_stream(village_trace, path)
        reloaded = StreamingTrace(path)
        l1 = L1CacheConfig(size_bytes=2048)
        a = PullArchitecture(l1).run(village_trace)
        b = PullArchitecture(l1).run(reloaded)
        assert a.l1_hit_rate == b.l1_hit_rate
        assert a.agp_bytes_per_frame().tolist() == b.agp_bytes_per_frame().tolist()

    def test_stats_and_architectures_consistent(self, village_trace):
        stats = workload_stats(village_trace)
        assert stats.depth_complexity > 0.5
        push = PushArchitecture().run(village_trace)
        curve = push_memory_curve(village_trace)
        assert [p.memory_bytes for p in push] == curve.tolist()

    def test_l2_min_memory_below_push(self, village_trace):
        l2 = l2_memory_curve(village_trace, 16)
        push = push_memory_curve(village_trace)
        assert l2.sum() < push.sum()

    def test_full_study_invariant_l2_saves_bandwidth(self, village_trace):
        l1 = L1CacheConfig(size_bytes=2048)
        pull = PullArchitecture(l1).run(village_trace)
        l2 = L2CachingArchitecture(
            l1, L2CacheConfig(size_bytes=256 * 1024), tlb_entries=8
        ).run(village_trace)
        assert l2.mean_agp_bytes_per_frame < pull.mean_agp_bytes_per_frame
        assert 0.0 < l2.tlb_hit_rate <= 1.0

    def test_all_refs_within_texture_bounds(self, village_trace):
        """Every emitted tile reference must address a real tile: valid tid,
        a MIP level the texture has, and tile coordinates inside the level."""
        from repro.texture.tiling import unpack_tile_refs

        textures = village_trace.textures
        for frame in village_trace.frames:
            f = unpack_tile_refs(frame.refs)
            assert f.tid.min(initial=0) >= 0
            assert f.tid.max(initial=0) < len(textures)
            for tid in np.unique(f.tid):
                tex = textures[int(tid)]
                sel = f.tid == tid
                assert f.mip[sel].max() < tex.level_count
                for m in np.unique(f.mip[sel]):
                    w, h = tex.level_dims(int(m))
                    lvl = sel & (f.mip == m)
                    assert f.tile_x[lvl].max() * 4 < w + 4
                    assert f.tile_y[lvl].max() * 4 < h + 4

    def test_object_offsets_recorded(self, village_trace):
        for frame in village_trace.frames:
            assert frame.object_offsets is not None
            ids = frame.object_ids()
            assert len(ids) == len(frame.refs)
            # Object ids are non-decreasing in stream order.
            assert np.all(np.diff(ids) >= 0)

    def test_inter_frame_locality_exists(self, village_trace):
        """The premise of the whole paper: frames share texture blocks."""
        from repro.trace.workingset import (
            per_frame_new_blocks,
            per_frame_unique_blocks,
        )

        uniques = per_frame_unique_blocks(village_trace, 16)
        new = per_frame_new_blocks(uniques)
        totals = np.array([len(u) for u in uniques])
        # After the first frame, most blocks were already used last frame.
        assert np.all(new[1:] < totals[1:])
