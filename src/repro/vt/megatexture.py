"""Megatexture page addressing over the packed tile-reference space.

Virtual texturing (Neu's "megatexture" endpoint of the paper's L2-as-
virtual-memory design) treats every scene texture as part of one huge
page-tiled virtual image. This module maps the repository's canonical
access event — the packed 4x4-texel L1 tile reference — onto that page
space without inventing a second address format: a *page reference* is
simply a tile reference coarsened to page granularity
(:func:`~repro.texture.tiling.coarsen_refs`; a frame's visible pages come
from :func:`~repro.raster.feedback.page_requests`), so ``(tid, mip, page_y,
page_x)`` rides in the same int64 layout and page identities are stable
across runs, engines, and checkpoints.

The MIP chain gives graceful degradation its fallback ladder: the
ancestor of page ``(tid, mip, y, x)`` at ``k`` levels coarser is
``(tid, mip+k, y>>k, x>>k)`` (clamped to the coarser level's page grid
for non-power-of-two edges). Every texture's coarsest level is a single
page, which the residency layer pins — so the fallback walk always
terminates at a resident page and a frame can always be textured.
"""

from __future__ import annotations

import numpy as np

from repro.texture.tiling import (
    CACHE_TEXEL_BYTES,
    L1_TILE_TEXELS,
    MAX_MIP_LEVELS,
    AddressSpace,
    pack_tile_refs,
    unpack_tile_refs,
)

__all__ = ["MegaTexture"]


class MegaTexture:
    """Page-granular view of an :class:`AddressSpace`.

    Args:
        space: the workload's texture address space.
        page_texels: page edge in texels (power of two, >= the 4-texel L1
            tile). A page holds ``page_texels**2`` 32-bit texels.
    """

    def __init__(self, space: AddressSpace, page_texels: int = 32):
        if page_texels < L1_TILE_TEXELS or (page_texels & (page_texels - 1)):
            raise ValueError(
                f"page_texels must be a power of two >= {L1_TILE_TEXELS}, "
                f"got {page_texels}"
            )
        self.space = space
        self.page_texels = page_texels

    @property
    def page_bytes(self) -> int:
        """Transfer size of one page download."""
        return self.page_texels * self.page_texels * CACHE_TEXEL_BYTES

    # ------------------------------------------------------------------
    # Page-grid geometry
    # ------------------------------------------------------------------
    def pages_wh(self, tid: int, mip: int) -> tuple[int, int]:
        """Page-grid dimensions of one MIP level."""
        key = tid * MAX_MIP_LEVELS + mip
        w = int(self.space.level_w[key])
        h = int(self.space.level_h[key])
        return -(-w // self.page_texels), -(-h // self.page_texels)

    def total_pages(self) -> int:
        """Pages in the whole virtual image (all textures, all levels)."""
        total = 0
        for tid in range(self.space.texture_count):
            for mip in range(int(self.space.level_count[tid])):
                pw, ph = self.pages_wh(tid, mip)
                total += pw * ph
        return total

    def coarsest_mip(self, tid: int) -> int:
        """Index of the texture's coarsest MIP level."""
        return int(self.space.level_count[tid]) - 1

    def coarsest_pages(self) -> np.ndarray:
        """One page per texture: its entire coarsest MIP level.

        These are the residency layer's pinned pages — the guaranteed
        landing spot of every fallback walk.
        """
        n = self.space.texture_count
        tids = np.arange(n, dtype=np.int64)
        mips = self.space.level_count[:n] - 1
        return pack_tile_refs(tids, mips, 0, 0, check=False)

    # ------------------------------------------------------------------
    # The MIP fallback ladder
    # ------------------------------------------------------------------
    def ancestor(self, page: int, k: int) -> int:
        """The page's MIP ancestor ``k`` levels coarser (packed ref).

        Coordinates are clamped to the coarser level's page grid so the
        result is always a real page even at non-power-of-two edges.
        """
        f = unpack_tile_refs(np.int64(page))
        tid = int(f.tid)
        mip = int(f.mip) + k
        pw, ph = self.pages_wh(tid, mip)
        y = min(int(f.tile_y) >> k, ph - 1)
        x = min(int(f.tile_x) >> k, pw - 1)
        return int(pack_tile_refs(tid, mip, y, x, check=False))
