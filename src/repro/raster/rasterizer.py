"""Fragments and fragment order: the rasterizer's output contract.

The rasterizer (:mod:`repro.raster.batch`) walks each triangle's pixels in
scanline order (the paper's assumption, §2.3: "we study multi-level
texture caching assuming that primitives are rasterized in scanline
order"), producing per-fragment perspective-correct (u, v) and a
level-of-detail value from the analytic screen-space derivatives of the
texture coordinates — the "texture compression" ratio used to select MIP
levels (§2.1).

A tiled fragment ordering is also provided for the Hakura rasterization-order
ablation.

Coverage uses the standard three-edge-function test with inclusive (>= 0)
comparisons: pixels exactly on a shared edge may rasterize in both triangles.
This inflates fragment counts by well under a percent on the study's
workloads and keeps the vectorized inner loop simple; the cache metrics are
insensitive to it (duplicated edge fragments collapse in the trace).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["Fragments", "RasterOrder"]


class RasterOrder(enum.Enum):
    """Fragment emission order within a triangle."""

    SCANLINE = "scanline"
    TILED = "tiled"


#: Edge length (pixels) of the tile used by ``RasterOrder.TILED``.
TILE_EDGE = 8


@dataclass
class Fragments:
    """Fragments of one rasterized triangle, in emission order.

    Attributes:
        xs / ys: int64 pixel coordinates.
        z: NDC depth (linear in screen space), for z-buffering.
        u / v: perspective-correct texture coordinates (unwrapped; the
            sampler applies GL_REPEAT).
        lod: per-fragment level of detail, log2 of the texel:pixel ratio in
            the texture's texel units.
    """

    xs: np.ndarray
    ys: np.ndarray
    z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    lod: np.ndarray

    def __len__(self) -> int:
        return len(self.xs)
