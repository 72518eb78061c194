"""Tests for the §4 locality-class decomposition."""

import numpy as np
import pytest

from repro.texture.texture import Texture
from repro.texture.tiling import pack_tile_refs
from repro.trace.locality import CLASSES, classify_locality, locality_fractions
from repro.trace.trace import FrameTrace, Trace, TraceMeta


def make_trace(frame_specs):
    """frame_specs: list of (refs_tiles, weights, object_offsets).

    refs_tiles are (tid, mip, ty, tx) tuples.
    """
    textures = [Texture("a", 256, 256)]
    frames = []
    for tiles, weights, offsets in frame_specs:
        if tiles:
            tids, mips, tys, txs = zip(*tiles)
            refs = pack_tile_refs(np.array(tids), np.array(mips),
                                  np.array(tys), np.array(txs))
        else:
            refs = np.empty(0, dtype=np.int64)
        frames.append(
            FrameTrace(
                refs=refs,
                weights=np.array(weights, dtype=np.int64),
                n_fragments=sum(weights),
                object_offsets=np.array(offsets, dtype=np.int64),
            )
        )
    meta = TraceMeta("t", 8, 8, "point", len(frames))
    return Trace(meta=meta, frames=frames, textures=textures)


BLOCK_A = (0, 0, 0, 0)   # tile in L2 block 0
BLOCK_A2 = (0, 0, 1, 1)  # different tile, same 16x16 block
BLOCK_B = (0, 0, 0, 4)   # different 16x16 block


class TestClassification:
    def test_compulsory_first_touch(self):
        t = make_trace([([BLOCK_A], [1], [0])])
        b = classify_locality(t, 16)
        assert b.counts["compulsory"].tolist() == [1]
        assert b.totals()["run"] == 0

    def test_run_counts_collapsed_weight(self):
        t = make_trace([([BLOCK_A], [5], [0])])
        b = classify_locality(t, 16)
        assert b.totals()["run"] == 4
        assert b.totals()["compulsory"] == 1

    def test_intra_object_reuse(self):
        # Two tiles of the same block within one object.
        t = make_trace([([BLOCK_A, BLOCK_A2], [1, 1], [0])])
        b = classify_locality(t, 16)
        assert b.totals()["intra_object"] == 1
        assert b.totals()["compulsory"] == 1

    def test_intra_frame_cross_object_reuse(self):
        # Same block touched by two different objects in one frame.
        t = make_trace([([BLOCK_A, BLOCK_A2], [1, 1], [0, 1])])
        b = classify_locality(t, 16)
        assert b.totals()["intra_frame"] == 1
        assert b.totals()["intra_object"] == 0

    def test_inter_frame_reuse(self):
        t = make_trace([
            ([BLOCK_A], [1], [0]),
            ([BLOCK_A], [1], [0]),
        ])
        b = classify_locality(t, 16)
        assert b.counts["inter_frame"].tolist() == [0, 1]
        assert b.counts["compulsory"].tolist() == [1, 0]

    def test_distant_reuse(self):
        t = make_trace([
            ([BLOCK_A], [1], [0]),
            ([BLOCK_B], [1], [0]),
            ([BLOCK_A], [1], [0]),  # last seen two frames ago
        ])
        b = classify_locality(t, 16)
        assert b.counts["distant"].tolist() == [0, 0, 1]

    def test_columns_sum_to_texel_reads(self):
        t = make_trace([
            ([BLOCK_A, BLOCK_A2, BLOCK_B], [3, 2, 1], [0, 2]),
            ([BLOCK_A, BLOCK_B], [4, 1], [0]),
        ])
        b = classify_locality(t, 16)
        for fi, frame in enumerate(t.frames):
            total = sum(b.counts[name][fi] for name in CLASSES)
            assert total == frame.texel_reads

    def test_granularity_changes_classes(self):
        # At 4x4 granularity BLOCK_A and BLOCK_A2 are different blocks.
        t = make_trace([([BLOCK_A, BLOCK_A2], [1, 1], [0])])
        fine = classify_locality(t, 4)
        assert fine.totals()["compulsory"] == 2
        coarse = classify_locality(t, 16)
        assert coarse.totals()["compulsory"] == 1

    def test_missing_offsets_raises(self):
        textures = [Texture("a", 256, 256)]
        refs = pack_tile_refs(0, 0, np.array([0]), np.array([0]))
        frames = [FrameTrace(refs, np.ones(1, dtype=np.int64), 1)]
        t = Trace(TraceMeta("t", 8, 8, "point", 1), frames, textures)
        with pytest.raises(ValueError):
            classify_locality(t)

    def test_fractions_sum_to_one(self):
        t = make_trace([
            ([BLOCK_A, BLOCK_A2, BLOCK_B], [3, 2, 1], [0, 2]),
            ([BLOCK_A, BLOCK_B], [4, 1], [0]),
        ])
        fr = locality_fractions(t, 16)
        assert sum(fr.values()) == pytest.approx(1.0)


class TestRenderedTraceIntegration:
    def test_pipeline_traces_classify(self, tmp_path):
        from repro.experiments.config import Scale
        from repro.experiments.traces import render_trace_stream
        from repro.texture.sampler import FilterMode

        micro = Scale(width=64, height=48, frames=3, detail=0.2, name="micro")
        trace = render_trace_stream(
            "village", micro, FilterMode.POINT, tmp_path / "v.stream"
        )
        b = classify_locality(trace, 16)
        # Locality-bearing rendering: the bulk of reads are run/intra-object.
        fr = b.fractions()
        assert fr["run"] + fr["intra_object"] > 0.5
        assert sum(fr.values()) == pytest.approx(1.0)
