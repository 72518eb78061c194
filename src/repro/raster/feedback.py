"""Feedback-driven visible-page pass for virtual texturing.

Real VT renderers run a feedback pass: render (or sample) the frame,
collect which virtual pages each fragment touched at its selected MIP
level, and hand the unique page set to the streamer. This reproduction
already has exactly that signal — the rasterizer's per-fragment trace
*is* the per-pixel MIP/footprint sampling — so the feedback pass reduces
to keeping the first-touch-ordered unique pages of the frame's packed
tile references. First-touch order matters: it makes request order (and
therefore streamer state and RNG draws) deterministic and identical
across engines.

The pass keys each reference by its page with one mask
(:func:`~repro.texture.tiling.block_keys`), keeps the first touches of
the keys, and coarsens only those to page references. Keys are equal
exactly when pages are, so the pages and their order are those of
coarsening every reference first.
"""

from __future__ import annotations

import numpy as np

from repro.texture.tiling import L1_TILE_TEXELS, block_keys, coarsen_refs
from repro.trace.events import drop_repeats

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
    factor = page_texels // L1_TILE_TEXELS
    return coarsen_refs(first_touch(block_keys(refs, factor)), factor)


def first_touch(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, in the order each first occurs.

    A repeat of the previous value is never a first touch, so runs are
    cut before the sort.
    """
    values = drop_repeats(values)
    _, first = np.unique(values, return_index=True)
    return values[np.sort(first)]
