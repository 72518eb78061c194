"""Per-triangle reference rasterizer and renderer.

:func:`rasterize_triangle` walks one triangle's bounding box at a time;
:class:`ReferenceRenderer` drives it triangle by triangle, sampling
footprints per instance with the reference sampler
(:func:`~tests.oracle.footprint.reference_footprint_tiles_grid`) and
collapsing them. The batched rasterizer
(:mod:`repro.raster.batch`) and the production
:class:`~repro.raster.pipeline.Renderer` are proven bit-identical to them,
fragments, traces and shaded images alike.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.camera import Camera
from repro.geometry.frustum import Frustum
from repro.raster.clipping import clip_triangle_near
from repro.raster.framebuffer import Framebuffer
from repro.raster.pipeline import FrameOutput, Renderer, _project_vertices, _select
from repro.raster.rasterizer import TILE_EDGE, Fragments, RasterOrder
from repro.raster.zbuffer import DepthBuffer
from repro.texture.sampler import secondary_lod_shift
from repro.trace.events import collapse_runs
from repro.trace.trace import FrameTrace

from tests.oracle.footprint import reference_footprint_tiles_grid

__all__ = ["rasterize_triangle", "ReferenceRenderer"]


def rasterize_triangle(
    screen_xy: np.ndarray,
    inv_w: np.ndarray,
    uv: np.ndarray,
    z_ndc: np.ndarray,
    width: int,
    height: int,
    tex_width: int,
    tex_height: int,
    double_sided: bool = False,
    order: RasterOrder = RasterOrder.SCANLINE,
) -> Fragments | None:
    """Rasterize one screen-space triangle.

    Args:
        screen_xy: ``(3, 2)`` vertex positions in pixel coordinates
            (x right, y **down**; pixel centers at integer + 0.5).
        inv_w: ``(3,)`` per-vertex 1/w_clip (the perspective term).
        uv: ``(3, 2)`` per-vertex texture coordinates (not yet divided by w).
        z_ndc: ``(3,)`` per-vertex NDC depth.
        width / height: viewport dimensions.
        tex_width / tex_height: level-0 texel dimensions of the bound
            texture, used to express LOD in texel units.
        double_sided: rasterize back faces too (sky geometry).
        order: scanline (default, the paper) or tiled fragment order.

    Returns:
        A :class:`Fragments` batch, or None when the triangle is culled,
        degenerate, or covers no pixel centers.
    """
    p = np.asarray(screen_xy, dtype=np.float64)
    x0, y0 = p[0]
    x1, y1 = p[1]
    x2, y2 = p[2]

    # Twice the signed area in pixel space (y down). Meshes wind CCW viewed
    # from the front in world space (y up); the y flip of the viewport
    # transform makes front faces *clockwise* in pixel space, i.e. area2 < 0.
    area2 = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    with np.errstate(divide="ignore", over="ignore"):
        if not np.isfinite(1.0 / area2):
            return None  # zero or subnormal area: degenerate
    if area2 > 0.0 and not double_sided:
        return None  # back face

    # Bounding box clamped to the viewport.
    min_x = max(int(np.floor(min(x0, x1, x2))), 0)
    max_x = min(int(np.ceil(max(x0, x1, x2))), width)
    min_y = max(int(np.floor(min(y0, y1, y2))), 0)
    max_y = min(int(np.ceil(max(y0, y1, y2))), height)
    if min_x >= max_x or min_y >= max_y:
        return None

    # Pixel-center grid, row-major: this *is* scanline order.
    ys_grid, xs_grid = np.mgrid[min_y:max_y, min_x:max_x]
    px = xs_grid.ravel() + 0.5
    py = ys_grid.ravel() + 0.5

    # Barycentric numerators (edge functions), normalized to positive area.
    sign = 1.0 if area2 > 0 else -1.0
    e0 = ((x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)) * sign
    e1 = ((x0 - x2) * (py - y2) - (y0 - y2) * (px - x2)) * sign
    e2 = ((x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)) * sign
    inside = (e0 >= 0) & (e1 >= 0) & (e2 >= 0)
    if not np.any(inside):
        return None

    inv_area = 1.0 / (area2 * sign)
    l0 = e0[inside] * inv_area
    l1 = e1[inside] * inv_area
    l2 = e2[inside] * inv_area
    xs = xs_grid.ravel()[inside]
    ys = ys_grid.ravel()[inside]

    # Perspective-correct attributes: u/w, v/w, 1/w are linear in screen
    # space; recover u, v by dividing by the interpolated 1/w.
    iw = np.asarray(inv_w, dtype=np.float64)
    uvw = np.asarray(uv, dtype=np.float64) * iw[:, None]  # (3, 2) of (u/w, v/w)
    w_frag = l0 * iw[0] + l1 * iw[1] + l2 * iw[2]
    p_frag = l0 * uvw[0, 0] + l1 * uvw[1, 0] + l2 * uvw[2, 0]
    q_frag = l0 * uvw[0, 1] + l1 * uvw[1, 1] + l2 * uvw[2, 1]
    # w_frag > 0 is guaranteed by near-plane clipping upstream.
    u = p_frag / w_frag
    v = q_frag / w_frag

    # NDC depth interpolates linearly in screen space (it is z/w).
    zn = np.asarray(z_ndc, dtype=np.float64)
    z = l0 * zn[0] + l1 * zn[1] + l2 * zn[2]

    # Analytic screen-space gradients. The barycentric gradients are
    # constant over the triangle:
    #   dl0/dx = (y1 - y2) / area2,  dl0/dy = (x2 - x1) / area2, etc.
    gl = (
        np.array(
            [
                [y1 - y2, x2 - x1],
                [y2 - y0, x0 - x2],
                [y0 - y1, x1 - x0],
            ]
        )
        / area2
    )  # (3, 2): rows are dl_k/d(x, y)
    dP = gl[0] * uvw[0, 0] + gl[1] * uvw[1, 0] + gl[2] * uvw[2, 0]  # d(u/w)/d(x,y)
    dQ = gl[0] * uvw[0, 1] + gl[1] * uvw[1, 1] + gl[2] * uvw[2, 1]
    dW = gl[0] * iw[0] + gl[1] * iw[1] + gl[2] * iw[2]

    # du/dx = (d(u/w)/dx - u * d(1/w)/dx) / (1/w), per fragment; in texels.
    inv_wf = 1.0 / w_frag
    dudx = (dP[0] - u * dW[0]) * inv_wf * tex_width
    dudy = (dP[1] - u * dW[1]) * inv_wf * tex_width
    dvdx = (dQ[0] - v * dW[0]) * inv_wf * tex_height
    dvdy = (dQ[1] - v * dW[1]) * inv_wf * tex_height
    rho = np.maximum(np.hypot(dudx, dvdx), np.hypot(dudy, dvdy))
    lod = np.log2(np.maximum(rho, 1e-12))

    frags = Fragments(xs=xs, ys=ys, z=z, u=u, v=v, lod=lod)
    if order is RasterOrder.TILED:
        # Stable sort by (tile row, tile col) alone: fragments already
        # arrive in (ys, xs) scanline order, so lexsort's stability keeps
        # that order within each tile — re-sorting by the raw coordinates
        # as well (the old 4-key sort) was redundant.
        key = np.lexsort((frags.xs // TILE_EDGE, frags.ys // TILE_EDGE))
        frags = Fragments(
            xs=frags.xs[key],
            ys=frags.ys[key],
            z=frags.z[key],
            u=frags.u[key],
            v=frags.v[key],
            lod=frags.lod[key],
        )
    return frags


class ReferenceRenderer(Renderer):
    """:class:`~repro.raster.pipeline.Renderer` rasterizing per triangle."""

    def render_frame(self, camera: Camera) -> FrameOutput:
        """Render one frame triangle by triangle (the ground truth)."""
        opt = self.options
        w, h = opt.width, opt.height
        vp = camera.view_projection(w, h)
        frustum = Frustum(vp) if opt.cull else None

        need_depth = opt.z_before_texture or opt.shade
        depth = DepthBuffer(w, h) if need_depth else None
        fb = Framebuffer(w, h) if opt.shade else None

        # Per-object collapsed chunks: collapsing within (not across) object
        # sub-streams keeps object boundaries exact for the §4 locality
        # decomposition; the only cost is that a duplicate straddling a
        # boundary survives as two entries (still a guaranteed L1 hit).
        obj_refs: list[np.ndarray] = []
        obj_weights: list[np.ndarray] = []
        n_fragments = 0
        culled = 0
        rasterized = 0

        for inst in self.instances:
            ref_chunks: list[np.ndarray] = []
            if frustum is not None:
                center, radius = inst.bounding_sphere()
                if not frustum.contains_sphere(center, radius):
                    culled += 1
                    continue
            self.manager.bind(inst.texture_id)
            tex = self.manager.texture(inst.texture_id)
            mvp = vp @ inst.model
            clip, ndc_all, screen_all, inv_w_all, fully_in = _project_vertices(
                inst.mesh, mvp, w, h
            )

            for t_idx, tri in enumerate(inst.mesh.triangles):
                inside = fully_in[t_idx]
                if inside.all():
                    pieces = [None]  # sentinel: fast path, no clipping
                elif not inside.any():
                    continue
                else:
                    pieces = clip_triangle_near(clip[tri], inst.mesh.uvs[tri])
                for piece in pieces:
                    if piece is None:
                        frags = rasterize_triangle(
                            screen_xy=screen_all[tri],
                            inv_w=inv_w_all[tri],
                            uv=inst.mesh.uvs[tri],
                            z_ndc=ndc_all[tri, 2],
                            width=opt.width,
                            height=opt.height,
                            tex_width=tex.width,
                            tex_height=tex.height,
                            double_sided=inst.mesh.double_sided,
                            order=opt.order,
                        )
                    else:
                        cpos, cuv = piece
                        frags = self._raster_one(
                            cpos, cuv, tex, inst.mesh.double_sided
                        )
                    if frags is None:
                        continue
                    rasterized += 1
                    if opt.z_before_texture:
                        passed = depth.test_and_update(frags.ys, frags.xs, frags.z)
                        frags = _select(frags, passed)
                        if len(frags) == 0:
                            continue
                    n_fragments += len(frags)
                    grid = reference_footprint_tiles_grid(
                        tex, inst.texture_id, frags.u, frags.v, frags.lod,
                        opt.filter_mode,
                    )
                    if inst.secondary_texture_id is not None:
                        # Multi-texturing: the second texture is sampled per
                        # fragment, interleaved with the base texture's
                        # footprint — exactly the access pattern that
                        # inflates the intra-frame working set (§4).
                        sec = self.manager.texture(inst.secondary_texture_id)
                        sec_grid = reference_footprint_tiles_grid(
                            sec,
                            inst.secondary_texture_id,
                            frags.u,
                            frags.v,
                            frags.lod + secondary_lod_shift(tex, sec),
                            opt.filter_mode,
                        )
                        grid = np.concatenate([grid, sec_grid], axis=1)
                    ref_chunks.append(grid.reshape(-1))
                    if opt.shade:
                        self._shade(frags, inst, tex, depth, fb, opt)

            if ref_chunks:
                chunk_refs, chunk_weights = collapse_runs(
                    np.concatenate(ref_chunks)
                )
                obj_refs.append(chunk_refs)
                obj_weights.append(chunk_weights)

        # One collapsed sub-stream per instance, concatenated in
        # submission order.
        lengths = [len(r) for r in obj_refs]
        offsets = np.cumsum([0] + lengths[:-1]) if obj_refs else []
        empty = np.empty(0, dtype=np.int64)
        trace = FrameTrace(
            refs=np.concatenate(obj_refs) if obj_refs else empty,
            weights=np.concatenate(obj_weights) if obj_refs else empty,
            n_fragments=n_fragments,
            object_offsets=np.asarray(offsets, dtype=np.int64),
        )
        return FrameOutput(
            trace=trace,
            image=fb.as_uint8() if fb is not None else None,
            culled_instances=culled,
            rasterized_triangles=rasterized,
        )

    def _raster_one(self, cpos, cuv, tex, double_sided) -> Fragments | None:
        opt = self.options
        w_clip = cpos[:, 3]
        ndc = cpos[:, :3] / w_clip[:, None]
        screen = np.empty((3, 2), dtype=np.float64)
        screen[:, 0] = (ndc[:, 0] + 1.0) * 0.5 * opt.width
        screen[:, 1] = (1.0 - ndc[:, 1]) * 0.5 * opt.height
        return rasterize_triangle(
            screen_xy=screen,
            inv_w=1.0 / w_clip,
            uv=cuv,
            z_ndc=ndc[:, 2],
            width=opt.width,
            height=opt.height,
            tex_width=tex.width,
            tex_height=tex.height,
            double_sided=double_sided,
            order=opt.order,
        )
