"""Locality-class decomposition (paper §4).

The paper distinguishes four types of locality in texture mapping:
intra-triangle, intra-object, intra-frame, and inter-frame — and designs
each cache level for specific classes (L1 for intra-triangle/-object, L2
for intra-frame/inter-frame). This module *measures* that decomposition on
a trace: every collapsed tile reference is classified by where the same
block was most recently referenced.

Classes, from tightest to loosest reuse:

* ``run``          — collapsed repeats (the same tile as the immediately
  preceding read): the intra-triangle scanline locality the run-length
  weights capture;
* ``intra_object`` — block last seen earlier in the same object this frame
  (tessellated surfaces re-touching shared blocks);
* ``intra_frame``  — block last seen earlier this frame in a *different*
  object (shared textures: street pavement, bricks, sky);
* ``inter_frame``  — block last seen in the previous frame;
* ``distant``      — block last seen two or more frames ago;
* ``compulsory``   — first-ever reference to the block.

The decomposition is computed at a chosen block granularity (4 for L1
tiles, 16 for the paper's default L2 blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.texture.tiling import L1_TILE_TEXELS, block_keys
from repro.trace.trace import Trace
from repro.trace.workingset import frame_unique_blocks

__all__ = [
    "LocalityBreakdown",
    "classify_locality",
    "locality_fractions",
    "frame_reuse_distance_histogram",
]

CLASSES = (
    "run",
    "intra_object",
    "intra_frame",
    "inter_frame",
    "distant",
    "compulsory",
)


@dataclass
class LocalityBreakdown:
    """Per-frame access counts by locality class.

    Attributes:
        counts: mapping class name -> int64 array of per-frame *texel-read*
            counts (collapsed weights restored, so the columns of a frame
            sum to its total texel reads).
        tile_texels: block granularity used for the classification.
    """

    counts: dict[str, np.ndarray]
    tile_texels: int

    @property
    def n_frames(self) -> int:
        """Number of frames in the classified trace."""
        return len(next(iter(self.counts.values())))

    def totals(self) -> dict[str, int]:
        """Whole-animation texel reads per class."""
        return {name: int(arr.sum()) for name, arr in self.counts.items()}

    def fractions(self) -> dict[str, float]:
        """Whole-animation fraction of texel reads per class."""
        totals = self.totals()
        grand = sum(totals.values())
        if grand == 0:
            return {name: 0.0 for name in totals}
        return {name: totals[name] / grand for name in totals}


def classify_locality(trace: Trace, tile_texels: int = 16) -> LocalityBreakdown:
    """Classify every texel read of a trace by reuse locality.

    Requires ``object_offsets`` in the trace frames (the rendering pipeline
    records them; hand-built traces may not).
    """
    if tile_texels % L1_TILE_TEXELS:
        raise ValueError(
            f"tile size must be a multiple of {L1_TILE_TEXELS}, got {tile_texels}"
        )
    factor = tile_texels // L1_TILE_TEXELS
    counts = {name: np.zeros(len(trace.frames), dtype=np.int64) for name in CLASSES}

    # last_frame_seen[block] = index of the most recent frame that touched
    # it. Kept as a dict keyed by block key (equal exactly when blocks are).
    last_frame_seen: dict[int, int] = {}

    for fi, frame in enumerate(trace.frames):
        if frame.object_offsets is None:
            raise ValueError(
                "trace frames lack object_offsets; re-render with the "
                "current pipeline to use locality classification"
            )
        blocks = block_keys(frame.refs, factor)
        weights = frame.weights
        n = len(blocks)
        if n == 0:
            continue

        # Run-length reuse: every collapsed repeat beyond the first read.
        counts["run"][fi] = int((weights - 1).sum())

        obj_ids = frame.object_ids()

        # First occurrence of each block within the frame, and — for repeat
        # occurrences — whether the previous occurrence was in the same
        # object.
        order = np.argsort(blocks, kind="stable")
        sorted_blocks = blocks[order]
        sorted_objs = obj_ids[order]
        first_in_group = np.empty(n, dtype=bool)
        first_in_group[0] = True
        np.not_equal(sorted_blocks[1:], sorted_blocks[:-1], out=first_in_group[1:])

        # Within-frame repeats: previous occurrence of the same block is the
        # previous element of the sorted group (stable sort preserves the
        # temporal order inside each block group).
        same_obj_prev = np.zeros(n, dtype=bool)
        same_obj_prev[1:] = (~first_in_group[1:]) & (
            sorted_objs[1:] == sorted_objs[:-1]
        )
        diff_obj_prev = np.zeros(n, dtype=bool)
        diff_obj_prev[1:] = (~first_in_group[1:]) & (
            sorted_objs[1:] != sorted_objs[:-1]
        )

        # Each non-first entry is one texel read (its collapsed repeats are
        # already in the "run" class), so entry counts are read counts.
        counts["intra_object"][fi] = int(same_obj_prev.sum())
        counts["intra_frame"][fi] = int(diff_obj_prev.sum())

        # Frame-level classification of each block's *first* touch this
        # frame: inter-frame (seen last frame), distant, or compulsory.
        first_positions = order[first_in_group]
        first_blocks = blocks[first_positions]
        inter = 0
        distant = 0
        compulsory = 0
        for b in first_blocks.tolist():
            seen = last_frame_seen.get(b)
            if seen is None:
                compulsory += 1
            elif seen == fi - 1:
                inter += 1
            else:
                distant += 1
            last_frame_seen[b] = fi
        counts["inter_frame"][fi] = inter
        counts["distant"][fi] = distant
        counts["compulsory"][fi] = compulsory

    return LocalityBreakdown(counts=counts, tile_texels=tile_texels)


def locality_fractions(trace: Trace, tile_texels: int = 16) -> dict[str, float]:
    """Convenience: whole-animation locality fractions."""
    return classify_locality(trace, tile_texels).fractions()


def frame_reuse_distance_histogram(
    trace: Trace, tile_texels: int = 16, max_distance: int = 8
) -> dict[str, int]:
    """Histogram of frame-level reuse distances of block touches.

    For every per-frame block first-touch that is a *reuse* (the block was
    seen before), record how many frames ago it was last seen. The mass at
    distance 1 is what an L2 holding exactly one inter-frame working set
    captures; the tail beyond ``max_distance`` is what only a much larger
    L2 (or the push architecture) would keep. Compulsory first-ever touches
    are reported under ``"inf"``.

    Returns a mapping ``{"1": n, "2": n, ..., ">=max": n, "inf": n}``.

    Unlike :func:`classify_locality` this needs no object offsets.
    """
    last_frame_seen: dict[int, int] = {}
    bins = {str(d): 0 for d in range(1, max_distance)}
    bins[f">={max_distance}"] = 0
    bins["inf"] = 0

    for fi, frame in enumerate(trace.frames):
        for b in frame_unique_blocks(frame, tile_texels).tolist():
            seen = last_frame_seen.get(b)
            if seen is None:
                bins["inf"] += 1
            else:
                d = fi - seen
                if d >= max_distance:
                    bins[f">={max_distance}"] += 1
                else:
                    bins[str(d)] += 1
            last_frame_seen[b] = fi
    return bins
