"""Feedback-driven visible-page pass for virtual texturing.

Real VT renderers run a feedback pass: render (or sample) the frame,
collect which virtual pages each fragment touched at its selected MIP
level, and hand the unique page set to the streamer. This reproduction
already has exactly that signal — the rasterizer's per-fragment trace
*is* the per-pixel MIP/footprint sampling — so the feedback pass reduces
to coarsening the frame's packed tile references to page granularity and
keeping first-touch-ordered unique pages. First-touch order matters: it
makes request order (and therefore streamer state and RNG draws)
deterministic and identical across engines.
"""

from __future__ import annotations

import numpy as np

from repro.texture.tiling import L1_TILE_TEXELS, coarsen_refs

__all__ = ["first_touch", "page_requests"]


def page_requests(refs: np.ndarray, page_texels: int) -> np.ndarray:
    """Unique visible pages of one frame, in first-touch order.

    Args:
        refs: the frame's packed 4x4-tile reference stream (the
            rasterizer's per-fragment footprint samples).
        page_texels: VT page edge in texels.

    A frame read in consecutive blocks gets the same pages from
    ``first_touch`` over the concatenated requests of its blocks.
    """
    return first_touch(coarsen_refs(refs, page_texels // L1_TILE_TEXELS))


def first_touch(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, in the order each first occurs."""
    _, first = np.unique(values, return_index=True)
    return values[np.sort(first)]
