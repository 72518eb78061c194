"""Triangle-batched span rasterization: the vectorized trace-generation engine.

:func:`rasterize_triangles` performs triangle setup for a whole block of
triangles in one vectorized pass — signed areas, backface culling, clamped
bounding boxes, barycentric gradients, and the perspective terms — and
emits fragments grouped per triangle in exactly the emission order of a
per-triangle reference rasterizer (``rasterize_triangle`` in the test-only
oracle, ``tests/oracle/``): triangles in input order, fragments in
scanline (or tiled) order within each triangle.

Coverage is computed per scanline, not per candidate pixel. Along one row
each edge function ``t - b*((x + 0.5) - xe)`` is monotone in the column
``x``: the pixel centre grows exactly, and IEEE subtraction,
multiplication by a fixed ``b`` and ``t - m`` are each monotone under
round-to-nearest. So each edge's ``>= 0`` test holds on a prefix of the
row (``b > 0``), a suffix (``b < 0``) or all or none of it (``b`` zero or
NaN), and a triangle's covered pixels on a row form one contiguous span
``[lo, hi)``. The span ends come from a vectorized binary search on the
exact predicate over row-sized arrays — all rows of all triangles at once
— so the emitted set is the reference's, bit for bit, with no pixel
outside a span ever evaluated.

Rows are enumerated in emission order, so expanding each span by its
row yields fragments already in (triangle, row, x) order: no width
buckets, no flat-index compression, no scatter. Interpolation and LOD
then run ``block_fragments`` fragments at a time. Each block builds one
per-fragment row index, gathers its rows' constants through it and
writes straight into the output arrays. Every arithmetic expression
mirrors the reference operation for operation and in the same operand
order, so the fragments are **bit-identical** — not merely close — to
the per-triangle loop; the differential suite proves this module against
that oracle.

**The workspace.** Every row-, block- and fragment-sized array of a call
lives in a :class:`~repro.workspace.Workspace`: grow-only named buffers
that every ufunc writes into with ``out=``. A renderer passes one
workspace to all its calls, so after the first few frames a call
allocates nothing but its per-triangle setup arrays and faults in no
fresh page. The returned :class:`FragmentBatch` holds *views* of the
workspace: they stay valid until the next call with the same
workspace, which overwrites them. Without a workspace, each call makes
a fresh one, and its batch owns its arrays as before. ``np.repeat`` has
no ``out=``, so a block expands its row constants by gathering with
``np.take(..., mode="clip", out=...)``; under the default
``mode="raise"`` numpy buffers the ``out=`` gather, which measured ~4x
slower than ``np.repeat`` (1224 vs 247 µs for a 21 x 16K gather). The
indices are always in range, so the clip never moves one.

Against the width-bucketed candidate grid it replaced, the pipeline
benchmark's traced ``raster.batch.s`` (default seeds, 2-vCPU VM) fell
from 0.81 to 0.45 s on village-sweep, 1.17 to 0.82 s on terrain-vt and
1.07 to 0.54 s on city-1024, for the same fragments. Before the
workspace, the rasterizer took 86–93% of the trace phase's minor page
faults (96K of 104K on terrain-vt); DESIGN §12.1 has the before/after.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.raster.rasterizer import TILE_EDGE, RasterOrder
from repro.workspace import Workspace

__all__ = [
    "FragmentBatch",
    "rasterize_triangles",
    "DEFAULT_BLOCK_FRAGMENTS",
]

#: Default cap on fragments interpolated per block. A block's ~40
#: float64 workspace buffers then total ~5 MB and stay in cache; larger
#: blocks measured slower, and with the workspace 1 << 13 and 1 << 15
#: were no faster on the pipeline benchmark's three workloads (DESIGN
#: §12.1).
DEFAULT_BLOCK_FRAGMENTS = 1 << 14


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


def _edge_bound(t, b, xe, min_x, widths, n_iter, ws):
    """One edge's span end per row, by binary search on the exact test.

    The test ``t - b*((min_x + c + 0.5) - xe) >= 0`` holds on a prefix of
    the row's columns ``c`` when ``b > 0``, on a suffix when ``b < 0``,
    and on all or none of them otherwise (see the module docstring).

    Returns ``(k, neg)``, workspace views: the edge covers columns
    ``[k, W)`` of a row where ``neg`` and ``[0, k)`` elsewhere.
    """
    n = len(t)
    neg = np.less(b, 0.0, out=ws.buffer("neg", n, bool))
    lo = ws.buffer("k", n, np.int64)
    lo.fill(0)
    hi = ws.buffer("k_hi", n, np.int64)
    np.copyto(hi, widths)
    mid = ws.buffer("mid", n, np.int64)
    step = ws.buffer("step", n, np.int64)
    test = ws.buffer("test", n)
    q = ws.buffer("q", n, bool)
    not_q = ws.buffer("not_q", n, bool)
    # Invariant: the prefix-shaped test (inverted for suffix rows) holds
    # on [0, lo) and fails on [hi, W).
    for _ in range(n_iter):
        np.add(lo, hi, out=mid)
        np.right_shift(mid, 1, out=mid)
        # q = (t - b * ((min_x + mid) + 0.5 - xe) >= 0) != neg
        np.add(min_x, mid, out=step)
        np.add(step, 0.5, out=test)
        np.subtract(test, xe, out=test)
        np.multiply(b, test, out=test)
        np.subtract(t, test, out=test)
        np.greater_equal(test, 0, out=q)
        np.not_equal(q, neg, out=q)
        # lo = where(q, minimum(mid + 1, hi), lo); hi = where(q, hi, mid)
        np.add(mid, 1, out=step)
        np.minimum(step, hi, out=step)
        np.copyto(lo, step, where=q)
        np.logical_not(q, out=not_q)
        np.copyto(hi, mid, where=not_q)
    return lo, neg


def _sum3(a0, b0, a1, b1, a2, b2, out, tmp):
    """``a0*b0 + a1*b1 + a2*b2`` into ``out``, in that operation order."""
    np.multiply(a0, b0, out=out)
    np.multiply(a1, b1, out=tmp)
    np.add(out, tmp, out=out)
    np.multiply(a2, b2, out=tmp)
    return np.add(out, tmp, out=out)


def _gradient(dp, f, dw, inv_w, dim, out):
    """``(dp - f * dw) * inv_w * dim`` into ``out``, in that order."""
    np.multiply(f, dw, out=out)
    np.subtract(dp, out, out=out)
    np.multiply(out, inv_w, out=out)
    return np.multiply(out, dim, out=out)


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
    block_fragments: int = DEFAULT_BLOCK_FRAGMENTS,
    workspace: Workspace | None = None,
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
        block_fragments: peak fragments interpolated at once.
        workspace: scratch buffers to reuse across calls. The returned
            arrays are then views of it, valid until the next call with
            the same workspace. None makes a fresh one for this call.

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
    if block_fragments < 1:
        raise ValueError(f"block_fragments must be >= 1, got {block_fragments}")
    ws = Workspace() if workspace is None else workspace

    x0a, y0a = p[:, 0, 0], p[:, 0, 1]
    x1a, y1a = p[:, 1, 0], p[:, 1, 1]
    x2a, y2a = p[:, 2, 0], p[:, 2, 1]

    # Twice the signed area; front faces are clockwise in pixel space
    # (area2 < 0), exactly as in the reference. A zero or subnormal area
    # has no finite 1/area2, so the triangle is degenerate.
    area2_all = (x1a - x0a) * (y2a - y0a) - (x2a - x0a) * (y1a - y0a)
    with np.errstate(divide="ignore", over="ignore"):
        live = np.isfinite(1.0 / area2_all)
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

    # Per-triangle interpolation constants, one row each, so a block of
    # fragments gathers all of them with a single np.take.
    per_tri_tex = np.ndim(tex_width) > 0
    consts = np.empty((21 if per_tri_tex else 19, n_live), dtype=np.float64)
    consts[0] = inv_area
    consts[1:4] = iw.T
    consts[4:7] = uvw[:, :, 0].T
    consts[7:10] = uvw[:, :, 1].T
    consts[10:13] = zn.T
    consts[13:15] = dP.T
    consts[15:17] = dQ.T
    consts[17:19] = dW.T
    if per_tri_tex:
        consts[19] = np.asarray(tex_width, dtype=np.float64).reshape(-1)[idx]
        consts[20] = np.asarray(tex_height, dtype=np.float64).reshape(-1)[idx]

    # Rows: every scanline of every live triangle's box, in emission
    # order (triangles in input order, rows top to bottom). Every live
    # box has a row, so each triangle's first row is distinct, and a
    # running sum of 1s there is each row's triangle.
    n_rows = int(heights.sum())
    first_row = np.cumsum(heights) - heights
    tri_r = ws.buffer("tri_r", n_rows, np.int64)
    tri_r.fill(0)
    tri_r[first_row[1:]] = 1
    np.cumsum(tri_r, out=tri_r)

    def per_row(values, name, dtype=np.float64):
        return np.take(
            values, tri_r, mode="clip", out=ws.buffer(name, n_rows, dtype)
        )

    ys_r = per_row(min_y - first_row, "ys_r", np.int64)
    ys_r += ws.iota(n_rows)
    py_r = np.add(ys_r, 0.5, out=ws.buffer("py_r", n_rows))
    sgn_r = per_row(sign, "sgn_r")
    minx_r = per_row(min_x, "minx_r", np.int64)
    w_r = per_row(widths, "w_r", np.int64)

    # Per row and edge, the constants of t - b*(px - xe): the reference
    # multiplies the whole edge function by sign, and a multiply by
    # exactly +/-1.0 is exact in IEEE, so folding it into t and b
    # ((t' - b'*dx)*s == t'*s - (b'*s)*dx, bitwise) leaves that tree.
    # Each edge narrows the row's covered span [lo, hi) to its own.
    lo = ws.buffer("lo", n_rows, np.int64)
    lo.fill(0)
    hi = ws.buffer("hi", n_rows, np.int64)
    np.copyto(hi, w_r)
    n_iter = int(w_r.max()).bit_length()
    edges = ws.buffer("edges", n_rows, rows=9)
    pos = ws.buffer("pos", n_rows, bool)
    for e, (ea, eb, xe, ye) in enumerate(
        ((ea0, eb0, x1, y1), (ea1, eb1, x2, y2), (ea2, eb2, x0, y0))
    ):
        t, b, xe_r = edges[3 * e : 3 * e + 3]
        # t = ea[tri_r] * (py_r - ye[tri_r]) * sgn_r; b = eb[tri_r] * sgn_r
        np.take(ye, tri_r, mode="clip", out=t)
        np.subtract(py_r, t, out=t)
        np.take(ea, tri_r, mode="clip", out=b)
        np.multiply(b, t, out=t)
        np.multiply(t, sgn_r, out=t)
        np.take(eb, tri_r, mode="clip", out=b)
        np.multiply(b, sgn_r, out=b)
        np.take(xe, tri_r, mode="clip", out=xe_r)
        k, neg = _edge_bound(t, b, xe_r, minx_r, w_r, n_iter, ws)
        np.maximum(lo, k, out=lo, where=neg)
        np.minimum(hi, k, out=hi, where=np.logical_not(neg, out=pos))
    counts = np.subtract(hi, lo, out=ws.buffer("counts", n_rows, np.int64))
    np.maximum(counts, 0, out=counts)
    ends = np.cumsum(counts, out=ws.buffer("ends", n_rows, np.int64))
    n_frags = int(ends[-1])
    if n_frags == 0:
        return _empty_batch()
    starts = np.subtract(ends, counts, out=ws.buffer("starts", n_rows, np.int64))
    # A row's fragments are consecutive in the output and in x, so
    # fragment f of row r sits at x = f - shift[r].
    shift = np.add(minx_r, lo, out=ws.buffer("shift", n_rows, np.int64))
    np.subtract(starts, shift, out=shift)

    out_xs = ws.buffer("xs", n_frags, np.int64)
    out_ys = ws.buffer("ys", n_frags, np.int64)
    out_z = ws.buffer("z", n_frags)
    out_u = ws.buffer("u", n_frags)
    out_v = ws.buffer("v", n_frags)
    out_lod = ws.buffer("lod", n_frags)
    out_tri = ws.buffer("tri_ids", n_frags, np.int64)

    # Interpolation, block_fragments fragments at a time. Each block is
    # the tail of one row, whole rows, and the head of another; a
    # per-fragment row index (a running sum of row steps placed at each
    # nonempty row's first fragment) gathers its rows' constants.
    for f0 in range(0, n_frags, block_fragments):
        f1 = min(f0 + block_fragments, n_frags)
        n = f1 - f0
        r0 = int(np.searchsorted(ends, f0, side="right"))
        r1 = int(np.searchsorted(starts, f1, side="left"))
        rows = r0 + np.flatnonzero(counts[r0:r1])
        row_f = ws.buffer("row_f", n, np.int64)
        row_f.fill(0)
        row_f[0] = rows[0]
        row_f[starts[rows[1:]] - f0] = np.diff(rows)
        np.cumsum(row_f, out=row_f)
        tri_f = np.take(tri_r, row_f, mode="clip", out=ws.buffer("tri_f", n, np.int64))

        # xs = (f0 + i) - shift[row], exact in int64.
        xs = np.take(shift, row_f, mode="clip", out=out_xs[f0:f1])
        np.subtract(ws.iota(n), xs, out=xs)
        xs += f0
        np.take(ys_r, row_f, mode="clip", out=out_ys[f0:f1])
        np.take(idx, tri_f, mode="clip", out=out_tri[f0:f1])
        t0, b0, x1f, t1, b1, x2f, t2, b2, x0f = np.take(
            edges, row_f, axis=1, mode="clip", out=ws.buffer("edges_f", n, rows=9)
        )
        (ia, iw0, iw1, iw2, up0, up1, up2, uq0, uq1, uq2, zn0, zn1, zn2,
         dP0, dP1, dQ0, dQ1, dW0, dW1, *tex) = np.take(
            consts, tri_f, axis=1, mode="clip",
            out=ws.buffer("consts_f", n, rows=len(consts)),
        )
        tw_f, th_f = tex if per_tri_tex else (tex_width, tex_height)

        # The edge functions again, over the same operands as the span
        # search (pixel centres x + 0.5, as the reference forms them), then
        # the reference's interpolation and LOD, operation for operation.
        # A gathered constant multiplies to the same IEEE bits as the
        # reference's scalar broadcast of the same value.
        px = np.add(xs, 0.5, out=ws.buffer("px", n))
        l0, l1, l2 = ws.buffer("lambda", n, rows=3)
        for lam, t, b, xe in ((l0, t0, b0, x1f), (l1, t1, b1, x2f), (l2, t2, b2, x0f)):
            # lam = (t - b * (px - xe)) * ia
            np.subtract(px, xe, out=lam)
            np.multiply(b, lam, out=lam)
            np.subtract(t, lam, out=lam)
            np.multiply(lam, ia, out=lam)
        tmp = ws.buffer("tmp", n)
        w_frag = _sum3(l0, iw0, l1, iw1, l2, iw2, ws.buffer("w_frag", n), tmp)
        u_f = _sum3(l0, up0, l1, up1, l2, up2, out_u[f0:f1], tmp)
        np.divide(u_f, w_frag, out=u_f)
        v_f = _sum3(l0, uq0, l1, uq1, l2, uq2, out_v[f0:f1], tmp)
        np.divide(v_f, w_frag, out=v_f)
        _sum3(l0, zn0, l1, zn1, l2, zn2, out_z[f0:f1], tmp)
        inv_wf = np.divide(1.0, w_frag, out=w_frag)
        dudx, dudy, dvdx, dvdy = ws.buffer("grads", n, rows=4)
        _gradient(dP0, u_f, dW0, inv_wf, tw_f, dudx)
        _gradient(dP1, u_f, dW1, inv_wf, tw_f, dudy)
        _gradient(dQ0, v_f, dW0, inv_wf, th_f, dvdx)
        _gradient(dQ1, v_f, dW1, inv_wf, th_f, dvdy)
        # lod = log2(max(max(hypot(dudx, dvdx), hypot(dudy, dvdy)), 1e-12))
        rho = np.hypot(dudx, dvdx, out=dudx)
        np.maximum(rho, np.hypot(dudy, dvdy, out=dudy), out=rho)
        np.maximum(rho, 1e-12, out=rho)
        np.log2(rho, out=out_lod[f0:f1])

    cols = (out_xs, out_ys, out_z, out_u, out_v, out_lod, out_tri)
    if order is RasterOrder.TILED:
        # Stable sort by (triangle, tile row, tile col); scanline order
        # within each tile is inherited from the emission order, matching
        # the reference's per-triangle tiled sort exactly.
        key = np.lexsort((out_xs // TILE_EDGE, out_ys // TILE_EDGE, out_tri))
        for col in cols:
            sorted_col = ws.buffer(f"sorted_{col.dtype}", n_frags, col.dtype)
            np.take(col, key, mode="clip", out=sorted_col)
            np.copyto(col, sorted_col)
    return FragmentBatch(*cols)
