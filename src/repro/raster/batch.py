"""Triangle-batched rasterization: the vectorized trace-generation engine.

:func:`rasterize_triangles` performs triangle setup for a whole block of
triangles in one vectorized pass — signed areas, backface culling, clamped
bounding boxes, barycentric gradients, and the perspective terms — and then
edge-tests entire bounding-box scanline spans at once, emitting fragments
grouped per triangle in exactly the emission order of a per-triangle
reference rasterizer (``rasterize_triangle`` in the test-only oracle,
``tests/oracle/``): triangles in input order, fragments in scanline (or
tiled) order within each triangle.

Every row of one triangle's bounding box has the same width, so triangles
are grouped by (padded) box width and each group is evaluated as a dense
``(rows, W)`` grid: the edge functions become pure 2D broadcasts against
per-row constants — the same shape of computation the reference performs
per triangle, but shared across arbitrarily many triangles per call, with
no per-candidate gather traffic. Group results are scattered into final
emission order with computed destinations (no sort).

Every arithmetic expression mirrors the reference rasterizer operation
for operation and in the same operand order, so the emitted fragments are
**bit-identical** — not merely close — to the per-triangle loop. The
differential suite proves this module against that oracle.

Candidate pixels are expanded at most ``block_candidates`` at a time (a
group's grid is walked in row chunks), so peak memory stays bounded no
matter how many triangles are batched or how large their boxes are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.raster.rasterizer import TILE_EDGE, RasterOrder

__all__ = [
    "FragmentBatch",
    "rasterize_triangles",
    "DEFAULT_BLOCK_CANDIDATES",
]

#: Default cap on simultaneously expanded candidate pixels per row chunk.
#: ~20 float64 temporaries per candidate; 1 << 18 keeps the chunk working
#: set around the L3 cache instead of churning fresh pages per block.
DEFAULT_BLOCK_CANDIDATES = 1 << 18


@dataclass
class FragmentBatch:
    """Fragments of a batch of triangles, grouped by triangle.

    Field semantics match :class:`~repro.raster.rasterizer.Fragments`;
    ``tri_ids`` additionally holds, per fragment, the index of its triangle
    in the input arrays. It is non-decreasing: fragments are grouped by
    triangle in input order, which is what lets callers slice per-triangle
    sub-streams (depth testing, shading) out of one batch.
    """

    xs: np.ndarray
    ys: np.ndarray
    z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    lod: np.ndarray
    tri_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.xs)

    def fragment_counts(self, n_triangles: int) -> np.ndarray:
        """Fragments per input triangle (0 for culled/empty triangles)."""
        return np.bincount(self.tri_ids, minlength=n_triangles)


def _empty_batch() -> FragmentBatch:
    zi = np.empty(0, dtype=np.int64)
    zf = np.empty(0, dtype=np.float64)
    return FragmentBatch(
        xs=zi, ys=zi.copy(), z=zf, u=zf.copy(), v=zf.copy(), lod=zf.copy(),
        tri_ids=zi.copy(),
    )


def rasterize_triangles(
    screen_xy: np.ndarray,
    inv_w: np.ndarray,
    uv: np.ndarray,
    z_ndc: np.ndarray,
    width: int,
    height: int,
    tex_width: int | np.ndarray,
    tex_height: int | np.ndarray,
    double_sided: bool | np.ndarray = False,
    order: RasterOrder = RasterOrder.SCANLINE,
    block_candidates: int = DEFAULT_BLOCK_CANDIDATES,
) -> FragmentBatch:
    """Rasterize a batch of screen-space triangles in one vectorized pass.

    Args:
        screen_xy: ``(T, 3, 2)`` vertex positions in pixel coordinates.
        inv_w: ``(T, 3)`` per-vertex 1/w_clip.
        uv: ``(T, 3, 2)`` per-vertex texture coordinates.
        z_ndc: ``(T, 3)`` per-vertex NDC depth.
        width / height: viewport dimensions.
        order: scanline (default, the paper) or tiled fragment order.
        tex_width / tex_height: bound texture dimensions — a scalar shared
            by the batch, or ``(T,)`` arrays so triangles with different
            texture bindings can share one call.
        double_sided: a scalar, or a ``(T,)`` bool array for per-triangle
            sidedness.
        block_candidates: peak candidate pixels expanded at once.

    Returns:
        A :class:`FragmentBatch`. Culled, degenerate, and empty triangles
        simply contribute no fragments; the concatenation of the batch's
        per-triangle groups is bit-identical to calling the reference
        rasterizer triangle by triangle.
    """
    p = np.asarray(screen_xy, dtype=np.float64).reshape(-1, 3, 2)
    n_tris = p.shape[0]
    if n_tris == 0:
        return _empty_batch()
    iw_all = np.asarray(inv_w, dtype=np.float64).reshape(n_tris, 3)
    uv_all = np.asarray(uv, dtype=np.float64).reshape(n_tris, 3, 2)
    zn_all = np.asarray(z_ndc, dtype=np.float64).reshape(n_tris, 3)
    if block_candidates < 1:
        raise ValueError(f"block_candidates must be >= 1, got {block_candidates}")

    x0a, y0a = p[:, 0, 0], p[:, 0, 1]
    x1a, y1a = p[:, 1, 0], p[:, 1, 1]
    x2a, y2a = p[:, 2, 0], p[:, 2, 1]

    # Twice the signed area; front faces are clockwise in pixel space
    # (area2 < 0), exactly as in the reference.
    area2_all = (x1a - x0a) * (y2a - y0a) - (x2a - x0a) * (y1a - y0a)
    live = area2_all != 0.0
    ds = np.asarray(double_sided, dtype=bool)
    if ds.ndim:
        live &= (area2_all < 0.0) | ds.reshape(-1)
    elif not ds:
        live &= area2_all < 0.0

    # Bounding boxes clamped to the viewport, in float so absurd off-screen
    # coordinates cannot overflow the int cast; clamped-out triangles fail
    # the emptiness test exactly like the reference's early return.
    fw, fh = float(width), float(height)
    bx0 = np.clip(np.floor(np.minimum(np.minimum(x0a, x1a), x2a)), 0.0, fw)
    bx1 = np.clip(np.ceil(np.maximum(np.maximum(x0a, x1a), x2a)), 0.0, fw)
    by0 = np.clip(np.floor(np.minimum(np.minimum(y0a, y1a), y2a)), 0.0, fh)
    by1 = np.clip(np.ceil(np.maximum(np.maximum(y0a, y1a), y2a)), 0.0, fh)
    live &= (bx0 < bx1) & (by0 < by1)

    idx = np.flatnonzero(live)
    n_live = len(idx)
    if n_live == 0:
        return _empty_batch()

    # Per-live-triangle setup (one vectorized pass over the whole batch).
    x0, y0 = x0a[idx], y0a[idx]
    x1, y1 = x1a[idx], y1a[idx]
    x2, y2 = x2a[idx], y2a[idx]
    area2 = area2_all[idx]
    iw = iw_all[idx]
    zn = zn_all[idx]
    min_x = bx0[idx].astype(np.int64)
    min_y = by0[idx].astype(np.int64)
    widths = bx1[idx].astype(np.int64) - min_x
    heights = by1[idx].astype(np.int64) - min_y

    sign = np.where(area2 > 0.0, 1.0, -1.0)
    inv_area = 1.0 / (area2 * sign)

    # Edge-function coefficients, one pair per edge.
    ea0, eb0 = x2 - x1, y2 - y1
    ea1, eb1 = x0 - x2, y0 - y2
    ea2, eb2 = x1 - x0, y1 - y0

    # Perspective terms and the constant barycentric gradients.
    uvw = uv_all[idx] * iw[:, :, None]  # (L, 3, 2) of (u/w, v/w)
    gl = np.empty((n_live, 3, 2), dtype=np.float64)
    gl[:, 0, 0], gl[:, 0, 1] = y1 - y2, x2 - x1
    gl[:, 1, 0], gl[:, 1, 1] = y2 - y0, x0 - x2
    gl[:, 2, 0], gl[:, 2, 1] = y0 - y1, x1 - x0
    gl /= area2[:, None, None]
    dP = (
        gl[:, 0, :] * uvw[:, 0, 0, None]
        + gl[:, 1, :] * uvw[:, 1, 0, None]
        + gl[:, 2, :] * uvw[:, 2, 0, None]
    )
    dQ = (
        gl[:, 0, :] * uvw[:, 0, 1, None]
        + gl[:, 1, :] * uvw[:, 1, 1, None]
        + gl[:, 2, :] * uvw[:, 2, 1, None]
    )
    dW = (
        gl[:, 0, :] * iw[:, 0, None]
        + gl[:, 1, :] * iw[:, 1, None]
        + gl[:, 2, :] * iw[:, 2, None]
    )

    per_tri_tex = np.ndim(tex_width) > 0
    if per_tri_tex:
        tw = np.asarray(tex_width, dtype=np.float64).reshape(-1)[idx]
        th = np.asarray(tex_height, dtype=np.float64).reshape(-1)[idx]

    # Contiguous per-triangle interpolation constants. Fragments reach
    # them through two cheap hops — triangle -> row (rows are few), then
    # row -> fragment (a plain 1-D gather) — instead of 2-D fancy
    # indexing per fragment, which dominates interior time otherwise.
    iw0, iw1, iw2 = iw[:, 0].copy(), iw[:, 1].copy(), iw[:, 2].copy()
    up0, up1, up2 = uvw[:, 0, 0].copy(), uvw[:, 1, 0].copy(), uvw[:, 2, 0].copy()
    uq0, uq1, uq2 = uvw[:, 0, 1].copy(), uvw[:, 1, 1].copy(), uvw[:, 2, 1].copy()
    zn0, zn1, zn2 = zn[:, 0].copy(), zn[:, 1].copy(), zn[:, 2].copy()
    dP0, dP1 = dP[:, 0].copy(), dP[:, 1].copy()
    dQ0, dQ1 = dQ[:, 0].copy(), dQ[:, 1].copy()
    dW0, dW1 = dW[:, 0].copy(), dW[:, 1].copy()

    # Width groups: every row of a triangle's box has the triangle's box
    # width, so triangles padded to the same W form a dense (rows, W) grid.
    # Padding to a multiple of 8 keeps group count small at <= 1/8 wasted
    # columns (masked out below, never emitted).
    bucket = (widths + 7) >> 3

    # Each part holds one chunk's compressed fragments, with ``trif`` the
    # per-fragment live-triangle position (ascending within a part).
    parts: list[tuple[np.ndarray, ...]] = []

    for b in np.unique(bucket):
        gsel = np.flatnonzero(bucket == b)
        wcap = int(b) << 3
        h = heights[gsel]
        n_rows = int(h.sum())
        tri_r = np.repeat(gsel, h)
        hstarts = np.concatenate(([0], np.cumsum(h)[:-1]))
        row_in = np.arange(n_rows, dtype=np.int64) - np.repeat(hstarts, h)
        ys_r = min_y[tri_r] + row_in
        py_r = ys_r + 0.5

        # Row constants: the y-dependent edge terms and per-triangle
        # coefficients, gathered once per row (rows << candidates).
        sgn_r = sign[tri_r]
        # The reference multiplies the whole edge function by sign; a
        # multiply by exactly +/-1.0 is exact in IEEE, so folding it into
        # the row constants ((t - b*dx)*s == t*s - (b*s)*dx, bitwise)
        # drops three full-grid multiplies per chunk.
        t0r = ea0[tri_r] * (py_r - y1[tri_r]) * sgn_r
        t1r = ea1[tri_r] * (py_r - y2[tri_r]) * sgn_r
        t2r = ea2[tri_r] * (py_r - y0[tri_r]) * sgn_r
        b0r, b1r, b2r = eb0[tri_r] * sgn_r, eb1[tri_r] * sgn_r, eb2[tri_r] * sgn_r
        x0r, x1r, x2r = x0[tri_r], x1[tri_r], x2[tri_r]
        minx_r = min_x[tri_r]
        w_r = widths[tri_r]

        # Row-hoisted interpolation constants (see above).
        ia_r = inv_area[tri_r]
        iw0r, iw1r, iw2r = iw0[tri_r], iw1[tri_r], iw2[tri_r]
        up0r, up1r, up2r = up0[tri_r], up1[tri_r], up2[tri_r]
        uq0r, uq1r, uq2r = uq0[tri_r], uq1[tri_r], uq2[tri_r]
        zn0r, zn1r, zn2r = zn0[tri_r], zn1[tri_r], zn2[tri_r]
        dP0r, dP1r = dP0[tri_r], dP1[tri_r]
        dQ0r, dQ1r = dQ0[tri_r], dQ1[tri_r]
        dW0r, dW1r = dW0[tri_r], dW1[tri_r]
        if per_tri_tex:
            tw_row, th_row = tw[tri_r], th[tri_r]
        cols = np.arange(wcap, dtype=np.int64)
        cols_f = cols.astype(np.float64)
        # (min_x + col) + 0.5 == (min_x + 0.5) + col bitwise: both sums of
        # small integers and 0.5 are exact, so px can come from a row
        # vector instead of an integer grid plus a second grid add.
        px_row = minx_r + 0.5

        chunk = max(int(block_candidates) // wcap, 1)
        for a in range(0, n_rows, chunk):
            s = slice(a, min(a + chunk, n_rows))
            px = px_row[s, None] + cols_f
            # The reference's edge functions, as 2D broadcasts: the same
            # operation tree ((ea*(py-y1) - eb*(px-x1)) * sign, with the
            # exact sign multiply pre-folded into t/b) over the same
            # operand values produces the same IEEE bits.
            e0 = t0r[s, None] - b0r[s, None] * (px - x1r[s, None])
            e1 = t1r[s, None] - b1r[s, None] * (px - x2r[s, None])
            e2 = t2r[s, None] - b2r[s, None] * (px - x0r[s, None])
            # min-reduction == three >=0 tests ANDed: NaNs fail both ways
            # and +/-0 passes both ways.
            inside = np.minimum(np.minimum(e0, e1), e2) >= 0
            inside &= cols < w_r[s, None]
            if not inside.any():
                continue

            # Compress via flat indices: row and column fall out of one
            # scan, so xs needs arithmetic instead of a second 2-D mask.
            flat = np.flatnonzero(inside.ravel())
            r_rel = flat // wcap
            rf = a + r_rel
            xs_f = minx_r[rf] + (flat - r_rel * wcap)

            # In-place updates below follow the reference's operation tree
            # exactly (((a + b) + c), ((d * e) * f), ...); only the buffer
            # reuse differs, not the arithmetic.
            ia_f = ia_r[rf]
            l0 = e0.ravel()[flat]
            l0 *= ia_f
            l1 = e1.ravel()[flat]
            l1 *= ia_f
            l2 = e2.ravel()[flat]
            l2 *= ia_f

            w_frag = l0 * iw0r[rf]
            w_frag += l1 * iw1r[rf]
            w_frag += l2 * iw2r[rf]
            u_f = l0 * up0r[rf]
            u_f += l1 * up1r[rf]
            u_f += l2 * up2r[rf]
            u_f /= w_frag
            v_f = l0 * uq0r[rf]
            v_f += l1 * uq1r[rf]
            v_f += l2 * uq2r[rf]
            v_f /= w_frag
            z_f = l0 * zn0r[rf]
            z_f += l1 * zn1r[rf]
            z_f += l2 * zn2r[rf]

            inv_wf = 1.0 / w_frag
            # A gathered constant multiplies to the same IEEE bits as the
            # reference's scalar broadcast of the same value.
            tw_f = tw_row[rf] if per_tri_tex else tex_width
            th_f = th_row[rf] if per_tri_tex else tex_height
            dW0f = dW0r[rf]
            dW1f = dW1r[rf]
            dudx = dP0r[rf] - u_f * dW0f
            dudx *= inv_wf
            dudx *= tw_f
            dudy = dP1r[rf] - u_f * dW1f
            dudy *= inv_wf
            dudy *= tw_f
            dvdx = dQ0r[rf] - v_f * dW0f
            dvdx *= inv_wf
            dvdx *= th_f
            dvdy = dQ1r[rf] - v_f * dW1f
            dvdy *= inv_wf
            dvdy *= th_f
            rho = np.maximum(np.hypot(dudx, dvdx), np.hypot(dudy, dvdy))
            lod = np.log2(np.maximum(rho, 1e-12))

            parts.append(
                (tri_r[rf], xs_f, ys_r[rf], z_f, u_f, v_f, lod)
            )

    if not parts:
        return _empty_batch()

    # Scatter the parts into emission order: fragments grouped by triangle
    # in input order, scanline order within each triangle. Destinations
    # are computed (no sort): each part is tri-ascending and row-major, so
    # a fragment's slot is its triangle's running cursor plus its rank
    # within the part's triangle group.
    part_counts = [np.bincount(pa[0], minlength=n_live) for pa in parts]
    totals = part_counts[0].copy()
    for c in part_counts[1:]:
        totals += c
    n_frags = int(totals.sum())
    cursor = np.concatenate(([0], np.cumsum(totals)[:-1]))

    out_xs = np.empty(n_frags, dtype=np.int64)
    out_ys = np.empty(n_frags, dtype=np.int64)
    out_z = np.empty(n_frags, dtype=np.float64)
    out_u = np.empty(n_frags, dtype=np.float64)
    out_v = np.empty(n_frags, dtype=np.float64)
    out_lod = np.empty(n_frags, dtype=np.float64)
    out_tri = np.empty(n_frags, dtype=np.int64)

    for (trif, xsf, ysf, zf, uf, vf, lodf), cnt in zip(parts, part_counts):
        first = np.flatnonzero(np.diff(trif, prepend=-1))
        reps = np.diff(np.append(first, len(trif)))
        rank = np.arange(len(trif), dtype=np.int64) - np.repeat(first, reps)
        dest = cursor[trif] + rank
        out_xs[dest] = xsf
        out_ys[dest] = ysf
        out_z[dest] = zf
        out_u[dest] = uf
        out_v[dest] = vf
        out_lod[dest] = lodf
        out_tri[dest] = idx[trif]
        cursor += cnt

    batch = FragmentBatch(
        xs=out_xs, ys=out_ys, z=out_z, u=out_u, v=out_v, lod=out_lod,
        tri_ids=out_tri,
    )
    if order is RasterOrder.TILED:
        # Stable sort by (triangle, tile row, tile col); scanline order
        # within each tile is inherited from the emission order, matching
        # the reference's per-triangle tiled sort exactly.
        key = np.lexsort(
            (batch.xs // TILE_EDGE, batch.ys // TILE_EDGE, batch.tri_ids)
        )
        batch = FragmentBatch(
            xs=batch.xs[key],
            ys=batch.ys[key],
            z=batch.z[key],
            u=batch.u[key],
            v=batch.v[key],
            lod=batch.lod[key],
            tri_ids=batch.tri_ids[key],
        )
    return batch
