"""Tests for the multi-texture Village variant and seed robustness."""

import numpy as np
import pytest

from repro.scenes import build_city, build_village
from repro.experiments.config import Scale
from repro.experiments.traces import get_trace
from repro.texture.sampler import FilterMode
from repro.texture.tiling import unpack_tile_refs

MICRO = Scale(width=64, height=48, frames=2, detail=0.2, name="micro")


class TestVillageMT:
    def test_lightmaps_loaded_and_bound(self):
        wl = build_village(detail=0.3, multitexture=True)
        names = [t.name for t in wl.scene.manager.textures]
        assert any("lightmap" in n for n in names)
        bound = [
            i.secondary_texture_id
            for i in wl.scene.instances
            if i.secondary_texture_id is not None
        ]
        assert len(bound) > 5

    def test_plain_village_has_no_secondary(self):
        wl = build_village(detail=0.3, multitexture=False)
        assert all(i.secondary_texture_id is None for i in wl.scene.instances)

    def test_workload_name(self):
        assert build_village(detail=0.3, multitexture=True).name == "village-mt"

    def test_trace_references_lightmaps(self):
        trace = get_trace("village-mt", MICRO, FilterMode.POINT)
        wl = build_village(detail=MICRO.detail, multitexture=True)
        lightmap_tids = {
            tid
            for tid, t in enumerate(wl.scene.manager.textures)
            if "lightmap" in t.name
        }
        touched = set()
        for frame in trace.frames:
            touched |= set(np.unique(unpack_tile_refs(frame.refs).tid).tolist())
        assert touched & lightmap_tids

    def test_mt_reads_exceed_plain(self):
        plain = get_trace("village", MICRO, FilterMode.POINT)
        mt = get_trace("village-mt", MICRO, FilterMode.POINT)
        assert mt.total_texel_reads() > plain.total_texel_reads()
        # Fragment counts are identical: multi-texturing adds reads, not
        # coverage.
        assert [f.n_fragments for f in mt.frames] == [
            f.n_fragments for f in plain.frames
        ]


class TestSeedRobustness:
    @pytest.mark.parametrize("seed", [1, 99])
    def test_alternate_seeds_build_and_render(self, seed):
        wl = build_city(detail=0.2, seed=seed)
        assert wl.scene.triangle_count > 0
        wl2 = build_village(detail=0.2, seed=seed)
        assert wl2.scene.triangle_count > 0

    def test_different_seeds_differ(self):
        a = build_city(detail=0.3, seed=1)
        b = build_city(detail=0.3, seed=2)
        ha = [i.mesh.positions[:, 1].max() for i in a.scene.instances[1:4]]
        hb = [i.mesh.positions[:, 1].max() for i in b.scene.instances[1:4]]
        assert ha != hb
