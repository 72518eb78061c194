"""Reference texture footprints: one ``pack_tile_refs`` per tap.

The formulation the production sampler (:mod:`repro.texture.sampler`) is
proven bit-identical against: each of a fragment's taps wraps its texel
coordinates with its own ``np.mod`` and packs ``(tid, mip, tile_y,
tile_x)`` from scratch, and trilinear concatenates the two levels' grids.
"""

from __future__ import annotations

import numpy as np

from repro.texture.mipmap import mip_level_dims
from repro.texture.sampler import FilterMode
from repro.texture.texture import Texture
from repro.texture.tiling import L1_TILE_TEXELS, pack_tile_refs

__all__ = ["reference_footprint_tiles_grid"]


def _nearest_level(lod: np.ndarray, n_levels: int) -> np.ndarray:
    return np.clip(np.floor(lod + 0.5), 0, n_levels - 1).astype(np.int64)


def _level_tiles(
    texture: Texture,
    tid: int,
    u: np.ndarray,
    v: np.ndarray,
    levels: np.ndarray,
    bilinear: bool,
) -> np.ndarray:
    n = len(u)
    k = 4 if bilinear else 1
    out = np.empty((n, k), dtype=np.int64)
    if n == 0:
        return out
    dims = np.array(
        [
            mip_level_dims(texture.width, texture.height, m)
            for m in range(int(levels.max()) + 1)
        ],
        dtype=np.int64,
    )
    w = dims[levels, 0]
    h = dims[levels, 1]
    uu = u * w
    vv = v * h
    if bilinear:
        x0 = np.floor(uu - 0.5).astype(np.int64)
        y0 = np.floor(vv - 0.5).astype(np.int64)
        xs = (np.mod(x0, w), np.mod(x0 + 1, w))
        ys = (np.mod(y0, h), np.mod(y0 + 1, h))
        col = 0
        for yy in ys:
            for xx in xs:
                out[:, col] = pack_tile_refs(
                    tid,
                    levels,
                    yy // L1_TILE_TEXELS,
                    xx // L1_TILE_TEXELS,
                    check=False,
                )
                col += 1
    else:
        x = np.mod(np.floor(uu).astype(np.int64), w)
        y = np.mod(np.floor(vv).astype(np.int64), h)
        out[:, 0] = pack_tile_refs(
            tid, levels, y // L1_TILE_TEXELS, x // L1_TILE_TEXELS, check=False
        )
    return out


def reference_footprint_tiles_grid(
    texture: Texture,
    tid: int,
    u: np.ndarray,
    v: np.ndarray,
    lod: np.ndarray,
    mode: FilterMode,
) -> np.ndarray:
    """Per-fragment footprint tile references as an ``(N, k)`` array."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    lod = np.asarray(lod, dtype=np.float64)
    n_levels = texture.level_count
    if mode is FilterMode.POINT:
        levels = _nearest_level(lod, n_levels)
        return _level_tiles(texture, tid, u, v, levels, bilinear=False)
    if mode is FilterMode.BILINEAR:
        levels = _nearest_level(lod, n_levels)
        return _level_tiles(texture, tid, u, v, levels, bilinear=True)
    if mode is FilterMode.TRILINEAR:
        m0 = np.clip(np.floor(lod), 0, n_levels - 1).astype(np.int64)
        m1 = np.minimum(m0 + 1, n_levels - 1)
        lo = _level_tiles(texture, tid, u, v, m0, bilinear=True)
        hi = _level_tiles(texture, tid, u, v, m1, bilinear=True)
        return np.concatenate([lo, hi], axis=1)
    raise ValueError(f"unknown filter mode {mode!r}")
