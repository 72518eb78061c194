"""Filtering footprints and color sampling.

The paper gathers basic-locality statistics with point sampling (§3.2) and
runs the cache simulator with bilinear and trilinear filtering (§5.3). This
module produces, for a batch of fragments with perspective-correct (u, v)
and level-of-detail values, the ordered stream of 4x4-texel tile references
each filter touches:

* point — 1 texel, 1 tile reference per fragment;
* bilinear — the 2x2 texel footprint at the selected MIP level, emitted as
  4 tile references (duplicates collapse downstream);
* trilinear — the 2x2 footprints at the two bracketing MIP levels, 8 refs.

The renderer calls the footprint kernel once per texture binding per
block of fragments, so its per-call cost is kept small: each binding's
per-level tables are memoized, power-of-two levels wrap with a mask
instead of ``np.mod``, and the grid and every temporary can live in the
render loop's :class:`~repro.workspace.Workspace`.

It also samples actual colors for image output (Fig 12 snapshots).
"""

from __future__ import annotations

import enum
import functools
import math
from typing import NamedTuple

import numpy as np

from repro.texture.mipmap import mip_level_count, mip_level_dims
from repro.texture.texture import Texture
from repro.texture.tiling import L1_TILE_TEXELS, pack_tile_refs
from repro.workspace import Workspace

__all__ = [
    "FilterMode",
    "footprint_tiles",
    "footprint_tiles_grid",
    "secondary_lod_shift",
    "texel_reads_per_fragment",
    "sample_color",
]

#: Texel -> 4x4-tile coordinate is a right shift by log2 of the tile edge.
_TILE_SHIFT = L1_TILE_TEXELS.bit_length() - 1
#: Bit offset of tile_y in a packed tile reference.
_TY_SHIFT = int(pack_tile_refs(0, 0, 1, 0)).bit_length() - 1


class FilterMode(enum.Enum):
    """Texture filtering mode (paper: point / bilinear / trilinear)."""

    POINT = "point"
    BILINEAR = "bilinear"
    TRILINEAR = "trilinear"


def texel_reads_per_fragment(mode: FilterMode) -> int:
    """Texel reads each rasterized fragment performs under ``mode``."""
    return {FilterMode.POINT: 1, FilterMode.BILINEAR: 4, FilterMode.TRILINEAR: 8}[mode]


def secondary_lod_shift(base: Texture, secondary: Texture) -> float:
    """LOD bias for sampling ``secondary`` with LODs computed for ``base``.

    Multi-texturing reuses the base texture's per-fragment LOD (computed in
    the base's texel units); a second texture of different resolution needs
    a constant log2 shift of the resolution ratio. Shared by the trace and
    shade paths of both rasterization engines.
    """
    return math.log2(
        max(secondary.width / base.width, secondary.height / base.height)
    )


def _nearest_level(lod: np.ndarray, n_levels: int, ws: Workspace) -> np.ndarray:
    """MIP level giving ~1:1 texel-to-pixel compression (round to nearest)."""
    # np.clip(np.floor(lod + 0.5), 0, n_levels - 1).astype(np.int64)
    f = np.add(lod, 0.5, out=ws.buffer("fp_lod", len(lod)))
    np.floor(f, out=f)
    np.clip(f, 0, n_levels - 1, out=f)
    return _to_int(f, ws.buffer("fp_m0", len(lod), np.int64))


def _to_int(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``values.astype(np.int64)`` written into ``out`` (the same cast)."""
    np.copyto(out, values, casting="unsafe")
    return out


class _LevelTables(NamedTuple):
    """Per-MIP-level tables of one texture binding, indexed by level."""

    w: np.ndarray
    h: np.ndarray
    base: np.ndarray  # packed (tid, mip, 0, 0)
    pow2: bool  # every level's width and height is a power of two


@functools.lru_cache(maxsize=1024)
def _level_tables(width: int, height: int, tid: int) -> _LevelTables:
    """The level tables of a ``width`` x ``height`` texture bound as ``tid``.

    Memoized by value, so a texture bound under two ids gets two tables and
    equal-sized textures share one per id. The levels of a texture are all
    powers of two exactly when its base dimensions are.
    """
    n = mip_level_count(width, height)
    w, h = np.array(
        [mip_level_dims(width, height, m) for m in range(n)], dtype=np.int64
    ).T
    base = pack_tile_refs(tid, np.arange(n), 0, 0, check=False)
    for arr in (w, h, base):
        arr.flags.writeable = False
    pow2 = width & (width - 1) == 0 and height & (height - 1) == 0
    return _LevelTables(w, h, base, pow2)


def _texel_coords(
    uv: np.ndarray,
    dims: np.ndarray,
    bilinear: bool,
    pow2: bool,
    ws: Workspace,
    axis: str,
) -> np.ndarray:
    """Wrapped int64 texel coordinates along one axis (GL_REPEAT).

    Bilinear takes the lower-left texel of the 2x2 footprint. ``dims`` is
    consumed: a power-of-two axis reuses it as the wrap mask. The result
    is the workspace buffer ``fp_{axis}0``.
    """
    t = np.multiply(uv, dims, out=ws.buffer("fp_t", len(uv)))
    if bilinear:
        t -= 0.5
    np.floor(t, out=t)
    coords = _to_int(t, ws.buffer(f"fp_{axis}0", len(uv), np.int64))
    if pow2:
        # In two's complement, x & (d - 1) == x mod d for a power-of-two d.
        dims -= 1
        coords &= dims
        return coords
    return np.mod(coords, dims, out=coords)


def _level_tiles(
    tables: _LevelTables,
    u: np.ndarray,
    v: np.ndarray,
    levels: np.ndarray,
    bilinear: bool,
    out: np.ndarray,
    ws: Workspace,
) -> None:
    """Write the tile references of one footprint per fragment into ``out``.

    ``out`` is an ``(N, k)`` int64 view, k = 1 (point) or 4 (bilinear:
    rows y0, y1 of columns x0, x1), filled in deterministic footprint order.
    """
    n = len(u)
    if n == 0:
        return

    def gather(table, name):
        return np.take(
            table, levels, mode="clip", out=ws.buffer(name, n, np.int64)
        )

    # Per-level tables gathered per fragment: one pass over the fragments
    # however many MIP levels the batch spans. A gathered dimension
    # multiplies to the same IEEE bits as a scalar broadcast of it.
    w = gather(tables.w, "fp_w")
    h = gather(tables.h, "fp_h")
    base = gather(tables.base, "fp_base")
    x0 = _texel_coords(u, w, bilinear, tables.pow2, ws, "x")
    y0 = _texel_coords(v, h, bilinear, tables.pow2, ws, "y")
    if not bilinear:
        y0 >>= _TILE_SHIFT
        y0 <<= _TY_SHIFT
        y0 |= base
        x0 >>= _TILE_SHIFT
        np.bitwise_or(y0, x0, out=out[:, 0])
        return
    # One wrap per axis: x0 + 1 wraps exactly when it reaches the width
    # (for a power-of-two axis ``w`` and ``h`` now hold the wrap masks).
    x1 = np.add(x0, 1, out=ws.buffer("fp_x1", n, np.int64))
    y1 = np.add(y0, 1, out=ws.buffer("fp_y1", n, np.int64))
    if tables.pow2:
        x1 &= w
        y1 &= h
    else:
        inside = ws.buffer("fp_inside", n, bool)
        x1 *= np.not_equal(x1, w, out=inside)
        y1 *= np.not_equal(y1, h, out=inside)
    x0 >>= _TILE_SHIFT
    x1 >>= _TILE_SHIFT
    for col, yy in ((0, y0), (2, y1)):
        yy >>= _TILE_SHIFT
        yy <<= _TY_SHIFT
        yy |= base
        np.bitwise_or(yy, x0, out=out[:, col])
        np.bitwise_or(yy, x1, out=out[:, col + 1])


def footprint_tiles_grid(
    texture: Texture,
    tid: int,
    u: np.ndarray,
    v: np.ndarray,
    lod: np.ndarray,
    mode: FilterMode,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Per-fragment footprint tile references as an ``(N, k)`` array.

    ``k`` is :func:`texel_reads_per_fragment`. Row *i* holds fragment *i*'s
    footprint in deterministic order. Multi-texturing interleaves several
    textures' grids column-wise before flattening, which is why the 2-D
    form is exposed. ``out`` is an ``(N, k)`` int64 array (a view is
    fine) to fill and return instead of a fresh one; ``workspace`` holds
    the temporaries (its ``fp_*`` buffers).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    lod = np.asarray(lod, dtype=np.float64)
    if not isinstance(mode, FilterMode):
        raise ValueError(f"unknown filter mode {mode!r}")
    ws = Workspace() if workspace is None else workspace
    tables = _level_tables(texture.width, texture.height, tid)
    n_levels = len(tables.w)
    n = len(u)
    if out is None:
        out = np.empty((n, texel_reads_per_fragment(mode)), dtype=np.int64)
    if mode is FilterMode.TRILINEAR:
        # m0 = np.clip(np.floor(lod), 0, n_levels - 1).astype(np.int64)
        f = np.floor(lod, out=ws.buffer("fp_lod", n))
        np.clip(f, 0, n_levels - 1, out=f)
        m0 = _to_int(f, ws.buffer("fp_m0", n, np.int64))
        m1 = np.add(m0, 1, out=ws.buffer("fp_m1", n, np.int64))
        np.minimum(m1, n_levels - 1, out=m1)
        _level_tiles(tables, u, v, m0, True, out[:, :4], ws)
        _level_tiles(tables, u, v, m1, True, out[:, 4:], ws)
    else:
        levels = _nearest_level(lod, n_levels, ws)
        _level_tiles(tables, u, v, levels, mode is FilterMode.BILINEAR, out, ws)
    return out


def footprint_tiles(
    texture: Texture,
    tid: int,
    u: np.ndarray,
    v: np.ndarray,
    lod: np.ndarray,
    mode: FilterMode,
) -> np.ndarray:
    """Ordered tile-reference stream for a fragment batch.

    Args:
        texture: the bound texture (supplies level dimensions).
        tid: its texture id.
        u, v: perspective-correct texture coordinates (wrap/GL_REPEAT).
        lod: per-fragment level-of-detail (log2 of the texel:pixel ratio).
        mode: filtering mode.

    Returns:
         1-D int64 array of packed tile references, fragment-major: each
        fragment contributes ``texel_reads_per_fragment(mode)`` consecutive
        entries in deterministic footprint order. Consecutive duplicates are
        *not* collapsed here (the tracer collapses with weights, preserving
        exact texel-access counts).
    """
    return footprint_tiles_grid(texture, tid, u, v, lod, mode).ravel()


def _gather_bilinear(level_img: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear color fetch from one pyramid level (wrapping)."""
    h, w = level_img.shape[:2]
    x = u * w - 0.5
    y = v * h - 0.5
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = (x - x0)[..., None]
    fy = (y - y0)[..., None]
    x0w, x1w = np.mod(x0, w), np.mod(x0 + 1, w)
    y0w, y1w = np.mod(y0, h), np.mod(y0 + 1, h)
    img = level_img.astype(np.float64)
    c00 = img[y0w, x0w]
    c10 = img[y0w, x1w]
    c01 = img[y1w, x0w]
    c11 = img[y1w, x1w]
    top = c00 * (1 - fx) + c10 * fx
    bot = c01 * (1 - fx) + c11 * fx
    return top * (1 - fy) + bot * fy


def sample_color(
    texture: Texture,
    u: np.ndarray,
    v: np.ndarray,
    lod: np.ndarray,
    mode: FilterMode,
) -> np.ndarray:
    """Sample ``(N, 3)`` float64 colors for image rendering.

    Point sampling uses nearest texel at the nearest level; bilinear blends
    the 2x2 footprint; trilinear additionally lerps between levels.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    lod = np.asarray(lod, dtype=np.float64)
    pyramid = texture.pyramid()
    n_levels = len(pyramid)
    out = np.empty((len(u), 3), dtype=np.float64)

    if mode is FilterMode.TRILINEAR:
        m0 = np.clip(np.floor(lod), 0, n_levels - 1).astype(np.int64)
        m1 = np.minimum(m0 + 1, n_levels - 1)
        frac = np.clip(lod - m0, 0.0, 1.0)[..., None]
        for m in np.unique(m0):
            sel = m0 == m
            lo = _gather_bilinear(pyramid[int(m)], u[sel], v[sel])
            # m1 is constant wherever m0 is constant (m1 = min(m0+1, max)).
            hi = _gather_bilinear(pyramid[int(m1[sel][0])], u[sel], v[sel])
            out[sel] = lo * (1 - frac[sel]) + hi * frac[sel]
        return out

    levels = _nearest_level(lod, n_levels, Workspace())
    for m in np.unique(levels):
        sel = levels == m
        img = pyramid[int(m)]
        if mode is FilterMode.BILINEAR:
            out[sel] = _gather_bilinear(img, u[sel], v[sel])
        else:
            h, w = img.shape[:2]
            x = np.mod(np.floor(u[sel] * w).astype(np.int64), w)
            y = np.mod(np.floor(v[sel] * h).astype(np.int64), h)
            out[sel] = img[y, x].astype(np.float64)
    return out
