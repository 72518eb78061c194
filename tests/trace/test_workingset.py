"""Tests for working-set analysis (Figs 4/5 machinery)."""

import numpy as np
import pytest

from repro.texture.texture import Texture
from repro.texture.tiling import pack_tile_refs
from repro.trace.locality import frame_reuse_distance_histogram
from repro.trace.trace import FrameTrace, Trace, TraceMeta
from repro.trace.workingset import (
    l2_memory_curve,
    per_frame_new_blocks,
    per_frame_unique_blocks,
    push_memory_curve,
    texture_memory_curve,
    total_and_new_memory,
)


def trace_from_tiles(frame_tiles, textures=None):
    """frame_tiles: list of lists of (tid, mip, ty, tx)."""
    textures = textures or [Texture("a", 64, 64, original_depth_bits=16),
                            Texture("b", 64, 64, original_depth_bits=32)]
    frames = []
    for tiles in frame_tiles:
        if tiles:
            tids, mips, tys, txs = zip(*tiles)
            refs = pack_tile_refs(np.array(tids), np.array(mips),
                                  np.array(tys), np.array(txs))
        else:
            refs = np.empty(0, dtype=np.int64)
        frames.append(FrameTrace(refs, np.ones(len(refs), dtype=np.int64),
                                 n_fragments=len(refs)))
    meta = TraceMeta("t", 16, 16, "point", len(frames))
    return Trace(meta=meta, frames=frames, textures=textures)


class TestUniqueBlocks:
    def test_l1_granularity_counts_tiles(self):
        t = trace_from_tiles([[(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)]])
        uniques = per_frame_unique_blocks(t, 4)
        assert len(uniques[0]) == 2

    def test_l2_granularity_merges_tiles(self):
        # Tiles (0,0) and (3,3) share the 16x16 block; (0,4) does not.
        t = trace_from_tiles([[(0, 0, 0, 0), (0, 0, 3, 3), (0, 0, 0, 4)]])
        assert len(per_frame_unique_blocks(t, 16)[0]) == 2

    def test_rejects_non_multiple(self):
        t = trace_from_tiles([[]])
        with pytest.raises(ValueError):
            per_frame_unique_blocks(t, 6)

    @pytest.mark.parametrize("tile", [6, 12, 24])
    def test_rejects_blocks_that_are_not_a_power_of_two_tiles(self, tile):
        # A bit-length mask would quietly round a 12-texel block (3x3
        # tiles) down to 8 texels; both per-frame unique readers refuse it.
        t = trace_from_tiles([[(0, 0, 0, 0), (0, 0, 5, 5)], [(1, 0, 2, 2)]])
        with pytest.raises(ValueError):
            per_frame_unique_blocks(t, tile)
        with pytest.raises(ValueError):
            frame_reuse_distance_histogram(t, tile)


class TestNewBlocks:
    def test_first_frame_all_new(self):
        t = trace_from_tiles([[(0, 0, 0, 0), (0, 0, 0, 4)]])
        uniques = per_frame_unique_blocks(t, 16)
        assert per_frame_new_blocks(uniques).tolist() == [2]

    def test_repeat_frame_not_new(self):
        tiles = [(0, 0, 0, 0), (0, 0, 0, 4)]
        t = trace_from_tiles([tiles, tiles])
        uniques = per_frame_unique_blocks(t, 16)
        assert per_frame_new_blocks(uniques).tolist() == [2, 0]

    def test_only_previous_frame_counts(self):
        a = [(0, 0, 0, 0)]
        b = [(0, 0, 0, 4)]
        # Frame 3 re-touches frame 1's block: "new" relative to frame 2.
        t = trace_from_tiles([a, b, a])
        uniques = per_frame_unique_blocks(t, 16)
        assert per_frame_new_blocks(uniques).tolist() == [1, 1, 1]


class TestMemoryCurves:
    def test_l2_curve_scales_with_block_size(self):
        t = trace_from_tiles([[(0, 0, 0, 0)]])
        assert l2_memory_curve(t, 16).tolist() == [16 * 16 * 4]
        assert l2_memory_curve(t, 32).tolist() == [32 * 32 * 4]

    def test_push_curve_uses_host_depth(self):
        t = trace_from_tiles([[(0, 0, 0, 0)], [(1, 0, 0, 0)],
                              [(0, 0, 0, 0), (1, 0, 0, 0)]])
        curve = push_memory_curve(t)
        a, b = t.textures
        assert curve.tolist() == [a.host_bytes, b.host_bytes,
                                  a.host_bytes + b.host_bytes]

    def test_texture_memory_flat(self):
        t = trace_from_tiles([[(0, 0, 0, 0)], []])
        curve = texture_memory_curve(t)
        total = sum(tex.host_bytes for tex in t.textures)
        assert curve.tolist() == [total, total]

    def test_total_and_new(self):
        tiles = [(0, 0, 0, 0)]
        t = trace_from_tiles([tiles, tiles + [(0, 0, 0, 4)]])
        total, new = total_and_new_memory(t, 16)
        assert total.tolist() == [1024, 2048]
        assert new.tolist() == [1024, 1024]

    def test_l2_minimum_below_push_for_sparse_touch(self):
        # Touching one tile of a big texture: L2 needs one block, push needs
        # the whole texture.
        t = trace_from_tiles([[(0, 0, 0, 0)]])
        assert l2_memory_curve(t, 16)[0] < push_memory_curve(t)[0]
