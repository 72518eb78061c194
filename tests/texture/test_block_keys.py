"""Coarse blocks keyed by one mask give the answers of coarsening every ref.

Every expected value here comes from definitions written out in this file:
the packed layout's field shifts, ``np.unique`` and a dict walk. None of
them calls the production helpers they check.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raster.feedback import first_touch, page_requests
from repro.texture.texture import Texture
from repro.texture.tiling import block_keys, coarsen_refs
from repro.trace.locality import frame_reuse_distance_histogram
from repro.trace.stream import StreamingTrace, save_stream
from repro.trace.trace import FrameTrace, Trace, TraceMeta
from repro.trace.workingset import per_frame_unique_blocks

# The packed layout, bit by bit: tid 49..62, mip 44..48, tile_y 22..43,
# tile_x 0..21.
TID_MAX = (1 << 14) - 1
MIP_MAX = (1 << 5) - 1
TILE_MAX = (1 << 22) - 1
FACTORS = (1, 2, 4, 8)


def pack(tid, mip, ty, tx):
    return (tid << 49) | (mip << 44) | (ty << 22) | tx


def coarsen_def(refs, factor):
    """Unpack, shift both tile fields right by log2(factor), repack."""
    refs = np.asarray(refs, dtype=np.int64)
    s = factor.bit_length() - 1
    tid = (refs >> 49) & TID_MAX
    mip = (refs >> 44) & MIP_MAX
    ty = (refs >> 22) & TILE_MAX
    tx = refs & TILE_MAX
    return pack(tid, mip, ty >> s, tx >> s)


def first_touch_def(values):
    _, first = np.unique(values, return_index=True)
    return values[np.sort(first)]


# Tile coordinates from the whole field, plus a few near each end so that
# refs often share a coarse block.
coords = st.one_of(
    st.integers(0, TILE_MAX), st.integers(0, 17), st.integers(TILE_MAX - 17, TILE_MAX)
)
tids = st.one_of(st.integers(0, TID_MAX), st.sampled_from([0, 1, TID_MAX]))
# (tid, mip, tile_y, tile_x, run length): runs of equal refs are common.
entries = st.tuples(tids, st.integers(0, MIP_MAX), coords, coords, st.integers(1, 4))
streams = st.lists(entries, max_size=60)


def to_refs(stream):
    if not stream:
        return np.empty(0, dtype=np.int64)
    tid, mip, ty, tx, run = (np.array(c, dtype=np.int64) for c in zip(*stream))
    return np.repeat(pack(tid, mip, ty, tx), run)


@settings(max_examples=200)
@given(streams, st.sampled_from(FACTORS))
def test_coarsen_refs_is_unpack_shift_pack(stream, factor):
    refs = to_refs(stream)
    np.testing.assert_array_equal(coarsen_refs(refs, factor), coarsen_def(refs, factor))


@settings(max_examples=200)
@given(streams, st.sampled_from(FACTORS))
def test_keys_name_and_order_the_coarse_blocks(stream, factor):
    refs = to_refs(stream)
    keys = block_keys(refs, factor)
    want = coarsen_def(refs, factor)
    # Equal keys exactly when equal blocks, and a key coarsens to its block.
    np.testing.assert_array_equal(coarsen_refs(keys, factor), want)
    np.testing.assert_array_equal(
        keys[:, None] == keys[None, :], want[:, None] == want[None, :]
    )
    np.testing.assert_array_equal(
        coarsen_refs(np.unique(keys), factor), np.unique(want)
    )


@settings(max_examples=200)
@given(streams, st.sampled_from(FACTORS))
def test_page_requests_is_first_touch_of_coarsened_refs(stream, factor):
    refs = to_refs(stream)
    got = page_requests(refs, 4 * factor)
    np.testing.assert_array_equal(got, first_touch_def(coarsen_def(refs, factor)))


@settings(max_examples=200)
@given(st.lists(st.integers(-3, 3), max_size=40))
def test_first_touch_keeps_first_occurrence_order(values):
    values = np.repeat(np.array(values, dtype=np.int64), 2)
    np.testing.assert_array_equal(first_touch(values), first_touch_def(values))


@pytest.mark.parametrize("fn", [block_keys, coarsen_refs])
def test_factor_must_be_a_power_of_two(fn):
    for factor in (0, 3, 6, 12):
        with pytest.raises(ValueError):
            fn(np.array([pack(1, 2, 3, 4)], dtype=np.int64), factor)


def _reuse_histogram_def(frame_refs, factor, max_distance):
    last: dict[int, int] = {}
    bins = {str(d): 0 for d in range(1, max_distance)}
    bins[f">={max_distance}"] = 0
    bins["inf"] = 0
    for fi, refs in enumerate(frame_refs):
        for b in np.unique(coarsen_def(refs, factor)).tolist():
            if b not in last:
                bins["inf"] += 1
            else:
                d = fi - last[b]
                bins[f">={max_distance}" if d >= max_distance else str(d)] += 1
            last[b] = fi
    return bins


@settings(max_examples=40)
@given(
    st.lists(streams, min_size=1, max_size=5),
    st.sampled_from(FACTORS),
    st.integers(1, 16),
)
def test_streamed_frame_uniques_match_their_definitions(frames, factor, chunk_refs):
    """Frames cut into chunks of a few refs (so most span chunks) give the
    per-frame uniques and reuse distances of the whole frames."""
    frame_refs = [to_refs(f) for f in frames]
    trace = Trace(
        meta=TraceMeta("keys", 8, 8, "point", len(frame_refs)),
        frames=[FrameTrace(r, np.ones(len(r), dtype=np.int64), len(r)) for r in frame_refs],
        textures=[Texture("a", 16, 16)],
    )
    tile = 4 * factor
    with tempfile.TemporaryDirectory() as tmp:
        st_trace = StreamingTrace(save_stream(trace, Path(tmp) / "t.stream", chunk_refs))
        uniques = per_frame_unique_blocks(st_trace, tile)
        assert len(uniques) == len(frame_refs)
        for got, refs in zip(uniques, frame_refs):
            np.testing.assert_array_equal(got, np.unique(coarsen_def(refs, factor)))
        assert frame_reuse_distance_histogram(
            st_trace, tile, max_distance=3
        ) == _reuse_histogram_def(frame_refs, factor, 3)
