"""Working-set analysis over traces (paper §4.2, Figs 4 and 5).

All quantities are *minimums*: the memory a cache of the given organization
would need under perfect behaviour (no replacement of blocks still needed
this frame), which is how the paper defines its Fig 4/5 curves:

* push architecture minimum — whole textures touched during the frame, at
  their original host depth, with a perfect whole-texture replacement
  algorithm at frame boundaries;
* L2 caching minimum — the distinct L2 blocks touched during the frame, at
  the 32-bit cache-expanded depth.
"""

from __future__ import annotations

import sys
from typing import Callable

import numpy as np

from repro.texture.tiling import (
    CACHE_TEXEL_BYTES,
    L1_TILE_TEXELS,
    block_keys,
    coarsen_refs,
    unpack_tile_refs,
)
from repro.trace.events import drop_repeats
from repro.trace.trace import FrameTrace, Trace

__all__ = [
    "frame_unique",
    "frame_unique_blocks",
    "texture_ids",
    "per_frame_unique_blocks",
    "per_frame_new_blocks",
    "l2_memory_curve",
    "push_memory_curve",
    "texture_memory_curve",
    "total_and_new_memory",
]


def _factor(tile_texels: int) -> int:
    if tile_texels % L1_TILE_TEXELS:
        raise ValueError(
            f"tile size must be a multiple of {L1_TILE_TEXELS}, got {tile_texels}"
        )
    return tile_texels // L1_TILE_TEXELS


def texture_ids(refs: np.ndarray) -> np.ndarray:
    """The texture id of each packed reference."""
    return unpack_tile_refs(refs).tid


def frame_unique(
    frame: FrameTrace, key: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Sorted unique ``key(refs)`` values over one frame.

    Walks the frame's blocks as its storage cuts them, so a streamed frame
    that spans chunks is deduplicated chunk by chunk, never concatenated.
    """
    parts = [np.unique(key(refs)) for refs, _ in frame.blocks(sys.maxsize)]
    return parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))


def frame_unique_blocks(frame: FrameTrace, tile_texels: int) -> np.ndarray:
    """Sorted unique block ids one frame touches, at the given granularity.

    ``tile_texels`` is the block edge (4 for L1 tiles, 8/16/32 for L2
    blocks), a power-of-two multiple of 4; ids are coarsened packed
    references, unique across textures. The frame is deduplicated on
    :func:`~repro.texture.tiling.block_keys`, which sort like the ids, and
    only the unique keys are coarsened. Runs of one key are dropped first,
    except at 4 texels: the keys are then the run-collapsed refs
    themselves, and the pass only cost time (0.23 -> 0.28 s over a 12-frame
    320x240 Village trace).
    """
    factor = _factor(tile_texels)
    if factor == 1:
        return frame_unique(frame, lambda refs: refs)
    keys = frame_unique(frame, lambda refs: drop_repeats(block_keys(refs, factor)))
    return coarsen_refs(keys, factor)


def per_frame_unique_blocks(trace: Trace, tile_texels: int) -> list[np.ndarray]:
    """:func:`frame_unique_blocks` of every frame."""
    return [frame_unique_blocks(f, tile_texels) for f in trace.frames]


def per_frame_new_blocks(unique_sets: list[np.ndarray]) -> np.ndarray:
    """Blocks per frame not touched in the *previous* frame (Fig 5 "new").

    The first frame is entirely new.
    """
    counts = np.empty(len(unique_sets), dtype=np.int64)
    prev: np.ndarray | None = None
    for i, current in enumerate(unique_sets):
        if prev is None:
            counts[i] = len(current)
        else:
            counts[i] = int((~np.isin(current, prev, assume_unique=True)).sum())
        prev = current
    return counts


def l2_memory_curve(trace: Trace, l2_tile_texels: int) -> np.ndarray:
    """Per-frame minimum L2 cache memory in bytes (Fig 4 L2 curves)."""
    block_bytes = l2_tile_texels * l2_tile_texels * CACHE_TEXEL_BYTES
    uniques = per_frame_unique_blocks(trace, l2_tile_texels)
    return np.array([len(u) * block_bytes for u in uniques], dtype=np.int64)


def push_memory_curve(trace: Trace) -> np.ndarray:
    """Per-frame minimum push-architecture memory in bytes (Fig 4).

    The push architecture downloads *entire textures* at their original
    depth; its per-frame minimum assumes a perfect replacement algorithm
    that keeps exactly the textures the frame touches.
    """
    host_bytes = np.array([t.host_bytes for t in trace.textures], dtype=np.int64)
    out = np.empty(len(trace.frames), dtype=np.int64)
    for i, frame in enumerate(trace.frames):
        out[i] = int(host_bytes[frame_unique(frame, texture_ids)].sum())
    return out


def texture_memory_curve(trace: Trace) -> np.ndarray:
    """Per-frame host memory holding all loaded textures (Fig 4 top line).

    The workloads load their full texture set up front and never delete, so
    this is flat — exactly like the paper's "texture loaded into main
    memory" line once the animation is underway.
    """
    total = sum(t.host_bytes for t in trace.textures)
    return np.full(len(trace.frames), total, dtype=np.int64)


def total_and_new_memory(
    trace: Trace, l2_tile_texels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (total, new) L2 block memory in bytes (Fig 5)."""
    block_bytes = l2_tile_texels * l2_tile_texels * CACHE_TEXEL_BYTES
    uniques = per_frame_unique_blocks(trace, l2_tile_texels)
    total = np.array([len(u) * block_bytes for u in uniques], dtype=np.int64)
    new = per_frame_new_blocks(uniques) * block_bytes
    return total, new
