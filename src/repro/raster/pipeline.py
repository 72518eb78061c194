"""The per-frame rendering/tracing pipeline.

This is the reproduction's equivalent of the instrumented Intel Scene
Manager: per frame it culls instances against the view frustum, transforms
and near-clips triangles, rasterizes them in scanline order, and emits the
texel-access stream (as collapsed 4x4-tile references) that the §4
statistics and the §5 cache simulator consume. Optionally it also shades
pixels into a framebuffer (Fig 12 snapshots) and/or applies the §6
z-before-texture optimization.

Rasterization is batched: triangle setup and edge testing are vectorized
across a group of consecutive triangles (:mod:`repro.raster.batch`), and
a frame is rasterized in groups of bounded bounding-box area, so no
array sized to the frame's fragments exists. Each group's references
are emitted before the next group is rasterized, in cache-sized blocks
of its fragments — one footprint call per texture binding per block,
then one run collapse per instance — straight into the frame's own
arrays. The differential suite
proves the emitted fragment and reference streams bit-identical to a
per-triangle renderer kept in the test-only oracle (``tests/oracle/``).

:meth:`Renderer.write_frames` hands each frame to the streaming trace
writer (:mod:`repro.trace.stream`) and drops it before rendering the
next, so a full-scale animation renders in bounded memory.

Each ``iter_frames``/``write_frames`` loop owns one
:class:`~repro.workspace.Workspace`, shared by every rasterizer,
footprint and collapse call of the loop and dropped when the loop ends;
a ``write_frames`` loop also reuses it for the frames'
``refs``/``weights`` (DESIGN §12.1, §12.3).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.geometry.camera import Camera
from repro.geometry.frustum import Frustum
from repro.geometry.mesh import Mesh, MeshInstance
from repro.raster.batch import rasterize_triangles
from repro.raster.clipping import clip_triangle_near
from repro.raster.framebuffer import Framebuffer
from repro.raster.rasterizer import Fragments, RasterOrder
from repro.raster.zbuffer import DepthBuffer
from repro.texture.manager import TextureManager
from repro.texture.sampler import (
    FilterMode,
    footprint_tiles_grid,
    sample_color,
    secondary_lod_shift,
    texel_reads_per_fragment,
)
from repro.texture.texture import Texture
from repro.trace.events import collapse_runs
from repro.trace.trace import FrameTrace
from repro.workspace import Workspace

__all__ = ["RenderOptions", "FrameOutput", "Renderer"]

#: Fragments per footprint → collapse block. A trilinear block's grids
#: then total 1 MB, and its temporaries stay in a per-core L2
#: (DESIGN §12.3).
FRAGMENT_BLOCK = 1 << 14

#: Clamped bounding-box pixels per rasterizer call. The render loop's
#: workspace keeps its largest group's fragments resident, so the budget
#: bounds that memory; with the workspace a smaller group no longer
#: faults in fresh pages, and 1 << 20 rendered as fast as 1 << 21 with
#: a ~14 MB lower city-1024 peak (DESIGN §12.3).
GROUP_PIXELS = 1 << 20


@dataclass(frozen=True)
class RenderOptions:
    """Pipeline configuration.

    Attributes:
        width / height: screen resolution (the paper uses 1024x768; the
            experiment harness defaults lower for simulation speed).
        filter_mode: texture filtering for the emitted access stream.
        order: scanline (paper default) or tiled rasterization order.
        z_before_texture: apply the depth test *before* texturing (§6 future
            work). Off by default — the paper's traces texture every
            rasterized fragment.
        shade: produce a color image (requires textures with image data).
        cull: frustum-cull instances by bounding sphere.
    """

    width: int = 512
    height: int = 384
    filter_mode: FilterMode = FilterMode.BILINEAR
    order: RasterOrder = RasterOrder.SCANLINE
    z_before_texture: bool = False
    shade: bool = False
    cull: bool = True


@dataclass
class FrameOutput:
    """Result of rendering one frame."""

    trace: FrameTrace
    image: np.ndarray | None = None
    culled_instances: int = 0
    rasterized_triangles: int = 0


def _project_vertices(mesh: Mesh, mvp: np.ndarray, width: int, height: int):
    """Clip-space, NDC, screen, and 1/w for every vertex of a mesh.

    Shared with the test oracle's per-triangle renderer so both see the
    same per-vertex bits.
    Returns ``(clip, ndc, screen, inv_w, fully_in)`` where ``fully_in`` is
    the per-triangle-per-vertex near-plane inclusion mask.
    """
    positions = mesh.positions
    homo = np.empty((positions.shape[0], 4), dtype=np.float64)
    homo[:, :3] = positions
    homo[:, 3] = 1.0
    clip = homo @ mvp.T

    # Near-plane distances per vertex; most triangles need no clipping,
    # and fully-behind triangles drop without setup.
    near_d = clip[:, 2] + clip[:, 3]
    fully_in = near_d[mesh.triangles] > 0.0
    safe_w = np.where(np.abs(clip[:, 3]) > 1e-12, clip[:, 3], 1.0)
    ndc = clip[:, :3] / safe_w[:, None]
    screen = np.empty((clip.shape[0], 2), dtype=np.float64)
    screen[:, 0] = (ndc[:, 0] + 1.0) * 0.5 * width
    screen[:, 1] = (1.0 - ndc[:, 1]) * 0.5 * height
    inv_w = 1.0 / safe_w
    return clip, ndc, screen, inv_w, fully_in


class Renderer:
    """Renders frames of a scene and traces their texture accesses.

    Args:
        instances: the scene's positioned meshes, in submission order
            (submission order defines rasterization order, which defines the
            access stream the caches see).
        manager: texture manager holding every texture the instances bind.
        options: pipeline configuration.
    """

    def __init__(
        self,
        instances: Sequence[MeshInstance],
        manager: TextureManager,
        options: RenderOptions | None = None,
    ):
        self.instances = list(instances)
        self.manager = manager
        self.options = options or RenderOptions()
        # The current render loop's scratch (see _render_loop).
        self._workspace: Workspace | None = None
        self._frame_buffers: Workspace | None = None
        for inst in self.instances:
            # Fail fast on dangling texture bindings.
            self.manager.texture(inst.texture_id)
            if inst.secondary_texture_id is not None:
                self.manager.texture(inst.secondary_texture_id)

    # ------------------------------------------------------------------
    def iter_frames(self, cameras: Sequence[Camera]) -> Iterator[FrameOutput]:
        """Render camera poses one frame at a time (generator).

        Yields each :class:`FrameOutput` as soon as it is rendered. A
        ``for out in iter_frames(...)`` loop still holds the previous
        frame in ``out`` while the next one renders, so it keeps two
        frames alive; :meth:`write_frames` keeps one. Every yielded frame
        owns its arrays, so a caller may keep any of them.
        """
        with self._render_loop(reuse_frames=False):
            for cam in cameras:
                yield self.render_frame(cam)

    def write_frames(self, cameras: Sequence[Camera], writer) -> None:
        """Render camera poses straight into ``writer.append_frame``.

        No reference to a frame outlives its ``append_frame`` call, so the
        previous frame is freed before the next one renders. Each frame's
        ``refs``/``weights`` are views of buffers the next frame
        overwrites: ``append_frame`` must copy what it keeps, as
        :class:`~repro.trace.stream.StreamTraceWriter` does.
        """
        with self._render_loop(reuse_frames=True):
            for cam in cameras:
                writer.append_frame(self.render_frame(cam).trace)

    @contextmanager
    def _render_loop(self, reuse_frames: bool):
        """One workspace for every ``render_frame`` of a loop.

        ``render_frame`` keeps its signature (the test oracle overrides
        it), so the loop hands the workspace over on the instance, and
        restores the previous one when it ends: nothing outlives the loop.
        """
        saved = self._workspace, self._frame_buffers
        ws = Workspace()
        self._workspace, self._frame_buffers = ws, ws if reuse_frames else None
        try:
            yield
        finally:
            self._workspace, self._frame_buffers = saved

    def render_frame(self, camera: Camera) -> FrameOutput:
        """Render one frame; returns its trace (and image when shading)."""
        opt = self.options
        w, h = opt.width, opt.height
        vp = camera.view_projection(w, h)
        frustum = Frustum(vp) if opt.cull else None

        need_depth = opt.z_before_texture or opt.shade
        depth = DepthBuffer(w, h) if need_depth else None
        fb = Framebuffer(w, h) if opt.shade else None

        # Phase 1 — cull + project every instance and split its triangles
        # into fully-inside runs and near-clip pieces. Both are only
        # *registered* here (their vertex data appended to frame-wide
        # arrays); clip pieces become one-triangle entries after the same
        # clip-space-to-screen transform the test oracle's per-triangle
        # renderer applies. ``plans`` holds each instance's contiguous
        # triangle span, in emission order. Texture dims and
        # sidedness are constant per run, so they are kept as
        # (value, count) pairs and expanded once in phase 2.
        plans: list[tuple[MeshInstance, object, int, int]] = []
        g_screen: list[np.ndarray] = []
        g_invw: list[np.ndarray] = []
        g_uv: list[np.ndarray] = []
        g_z: list[np.ndarray] = []
        g_texw: list[float] = []
        g_texh: list[float] = []
        g_ds: list[bool] = []
        g_counts: list[int] = []
        g_ntri = 0
        culled = 0
        rasterized = 0

        def _register(screen_t, invw_t, uv_t, z_t, n, tex, ds):
            g_screen.append(screen_t)
            g_invw.append(invw_t)
            g_uv.append(uv_t)
            g_z.append(z_t)
            g_texw.append(float(tex.width))
            g_texh.append(float(tex.height))
            g_ds.append(bool(ds))
            g_counts.append(n)

        for inst in self.instances:
            if frustum is not None:
                center, radius = inst.bounding_sphere()
                if not frustum.contains_sphere(center, radius):
                    culled += 1
                    continue
            self.manager.bind(inst.texture_id)
            tex = self.manager.texture(inst.texture_id)
            mvp = vp @ inst.model
            clip, ndc, screen, inv_w, fully_in = _project_vertices(
                inst.mesh, mvp, w, h
            )

            tris = inst.mesh.triangles
            all_in = fully_in.all(axis=1)
            emit = np.flatnonzero(fully_in.any(axis=1))
            if len(emit) == 0:
                continue
            inst_start = g_ntri
            needs_clip = ~all_in[emit]
            change = np.flatnonzero(np.diff(needs_clip)) + 1
            run_bounds = np.concatenate(([0], change, [len(emit)]))
            for rs, re in zip(run_bounds[:-1], run_bounds[1:]):
                run = emit[rs:re]
                if needs_clip[rs]:
                    for t_idx in run:
                        tri = tris[t_idx]
                        for cpos, cuv in clip_triangle_near(
                            clip[tri], inst.mesh.uvs[tri]
                        ):
                            # Clip space to screen, operation for
                            # operation as the per-triangle oracle does
                            # it, registered as a one-triangle batch
                            # entry.
                            w_clip = cpos[:, 3]
                            ndc_p = cpos[:, :3] / w_clip[:, None]
                            screen_p = np.empty((1, 3, 2), dtype=np.float64)
                            screen_p[0, :, 0] = (ndc_p[:, 0] + 1.0) * 0.5 * w
                            screen_p[0, :, 1] = (1.0 - ndc_p[:, 1]) * 0.5 * h
                            _register(
                                screen_p,
                                (1.0 / w_clip)[None],
                                cuv[None],
                                ndc_p[None, :, 2],
                                1,
                                tex,
                                inst.mesh.double_sided,
                            )
                            g_ntri += 1
                else:
                    t = tris[run]
                    n = len(run)
                    _register(
                        screen[t],
                        inv_w[t],
                        inst.mesh.uvs[t],
                        ndc[t, 2],
                        n,
                        tex,
                        inst.mesh.double_sided,
                    )
                    g_ntri += n
            if g_ntri > inst_start:
                # Registrations are consecutive, so the instance owns one
                # contiguous triangle span of the frame batch.
                plans.append((inst, tex, inst_start, g_ntri))

        # Phase 2 — rasterize the registered triangles in consecutive
        # groups of at most GROUP_PIXELS clamped bounding-box pixels, one
        # rasterizer call each, and emit each group's references before
        # rasterizing the next, so no array sized to the frame's
        # fragments exists. Per-triangle texture dimensions and sidedness
        # let instances with different bindings share a call; fragments
        # come back grouped by triangle in registration (== emission)
        # order, and per-triangle output does not depend on how the frame
        # is cut. A triangle's clamped bounding box bounds its fragments.
        n_fragments = 0
        stream = _FrameStream(0, self._frame_buffers)
        ws = self._workspace or Workspace()
        if g_ntri:
            screen_xy = np.concatenate(g_screen)
            inv_w = np.concatenate(g_invw)
            uv = np.concatenate(g_uv)
            z_ndc = np.concatenate(g_z)
            tex_w = np.repeat(np.asarray(g_texw, dtype=np.float64), g_counts)
            tex_h = np.repeat(np.asarray(g_texh, dtype=np.float64), g_counts)
            sided = np.repeat(np.asarray(g_ds, dtype=bool), g_counts)
            area = _bbox_areas(screen_xy, w, h)
            carea = np.concatenate(([0], np.cumsum(area)))
            # Texel reads per fragment of each triangle's instance.
            taps = texel_reads_per_fragment(opt.filter_mode)
            reads = np.repeat(
                [
                    taps if inst.secondary_texture_id is None else 2 * taps
                    for inst, _, _, _ in plans
                ],
                [te - ts for _, _, ts, te in plans],
            )

            k = 0  # the first plan whose triangles are not all rasterized
            done = 0  # fragments plan k has emitted in earlier groups
            for gs, ge in _groups(carea):
                batch = rasterize_triangles(
                    screen_xy=screen_xy[gs:ge],
                    inv_w=inv_w[gs:ge],
                    uv=uv[gs:ge],
                    z_ndc=z_ndc[gs:ge],
                    width=w,
                    height=h,
                    tex_width=tex_w[gs:ge],
                    tex_height=tex_h[gs:ge],
                    double_sided=sided[gs:ge],
                    order=opt.order,
                    workspace=ws,
                )
                counts = batch.fragment_counts(ge - gs)
                bounds = np.concatenate(([0], np.cumsum(counts)))
                if gs == 0:
                    # Reserve the frame's arrays once: exact for this
                    # group, bounding boxes for the rest, so a frame of
                    # one group allocates exactly its texel reads.
                    stream = _FrameStream(
                        int(counts @ reads[:ge] + area[ge:] @ reads[ge:]),
                        self._frame_buffers,
                    )

                # Walk the instances this group holds triangles of, in
                # emission order, slicing each one's share of the batch
                # (through the depth test when enabled).
                segments: list[_Segment] = []
                while k < len(plans) and plans[k][2] < ge:
                    inst, tex, ts, te = plans[k]
                    a, b = max(ts, gs) - gs, min(te, ge) - gs
                    rasterized += int(np.count_nonzero(counts[a:b]))
                    if bounds[a] < bounds[b]:
                        kept = self._texturing(
                            batch, bounds[a : b + 1], inst, tex, depth, fb
                        )
                        if kept is not None:
                            segments.append(_Segment(inst, tex, *kept, done))
                            done += len(kept[0])
                    if te > ge:
                        break  # the instance continues in the next group
                    k += 1
                    done = 0
                n_fragments += sum(len(seg.u) for seg in segments)
                stream.emit(segments, self.manager, opt.filter_mode, ws)
                # Drop this group's fragments (workspace views the next
                # call overwrites) before rasterizing the next.
                del batch, segments

        trace = stream.finish(n_fragments)
        return FrameOutput(
            trace=trace,
            image=fb.as_uint8() if fb is not None else None,
            culled_instances=culled,
            rasterized_triangles=rasterized,
        )

    def _texturing(self, batch, bounds, inst, tex, depth, fb):
        """One instance's share of a group batch that reaches texturing.

        ``bounds`` are the batch offsets of the share's triangles. Returns
        its ``(u, v, lod)``, or None when every fragment failed the depth
        test.
        """
        opt = self.options
        if depth is None:
            lo, hi = bounds[0], bounds[-1]
            return batch.u[lo:hi], batch.v[lo:hi], batch.lod[lo:hi]
        # Depth is sequential across triangles (a later triangle tests
        # against earlier writes), so walk per-triangle slices of the
        # batch in emission order; rasterization itself was vectorized.
        kept: list[Fragments] = []
        for s, e in zip(bounds[:-1], bounds[1:]):
            if s == e:
                continue
            piece = Fragments(
                xs=batch.xs[s:e],
                ys=batch.ys[s:e],
                z=batch.z[s:e],
                u=batch.u[s:e],
                v=batch.v[s:e],
                lod=batch.lod[s:e],
            )
            if opt.z_before_texture:
                passed = depth.test_and_update(piece.ys, piece.xs, piece.z)
                piece = _select(piece, passed)
                if len(piece) == 0:
                    continue
            kept.append(piece)
            if opt.shade:
                self._shade(piece, inst, tex, depth, fb, opt)
        if not kept:
            return None
        return tuple(
            np.concatenate([getattr(p, col) for p in kept])
            for col in ("u", "v", "lod")
        )

    def _shade(self, frags, inst, tex, depth, fb, opt) -> None:
        if opt.z_before_texture:
            # Depth already resolved; every surviving fragment is visible.
            visible = np.ones(len(frags), dtype=bool)
        else:
            visible = depth.test_and_update(frags.ys, frags.xs, frags.z)
        if not np.any(visible):
            return
        vis = _select(frags, visible)
        colors = sample_color(tex, vis.u, vis.v, vis.lod, opt.filter_mode)
        if inst.secondary_texture_id is not None:
            # Modulate by the lightmap's luminance (standard multi-texture
            # combine).
            sec = self.manager.texture(inst.secondary_texture_id)
            light = sample_color(
                sec,
                vis.u,
                vis.v,
                vis.lod + secondary_lod_shift(tex, sec),
                opt.filter_mode,
            )
            colors = colors * (light.mean(axis=1, keepdims=True) / 255.0)
        fb.write_pixels(vis.ys, vis.xs, colors)


class _Segment(NamedTuple):
    """One instance's fragments of one group that reached texturing.

    ``done`` counts the instance's fragments emitted in earlier groups.
    """

    inst: MeshInstance
    tex: Texture
    u: np.ndarray
    v: np.ndarray
    lod: np.ndarray
    done: int


class _FrameStream:
    """A frame's reference stream, filled group by group in emission order.

    ``refs``/``weights`` are reserved once at ``bound`` entries, an upper
    bound on the frame's texel reads; pages past what is written are
    never touched. With ``buffers`` they are views of its grow-only
    ``refs``/``weights`` buffers, shared by every frame of a
    ``write_frames`` loop, so the frame's trace is valid only until the
    next frame starts. :meth:`emit` cuts a group's segments into blocks of
    ``FRAGMENT_BLOCK`` fragments; a block holds pieces of one or more
    instances. Each block's footprints are sampled with one call per
    texture binding (:func:`_block_grids`), then every piece is
    collapsed, in emission order, straight into the frame's arrays. An
    instance cut by a block or group edge continues in the next piece;
    when that piece starts with the instance's last ref, it is written
    one entry back, over that run, whose weight it adds back. So the
    stream equals one collapse per instance, and runs never merge across
    instances (DESIGN §12.3).
    """

    def __init__(self, bound: int, buffers: Workspace | None = None):
        self.owned = buffers is None
        if self.owned:
            self.refs = np.empty(bound, dtype=np.int64)
            self.weights = np.empty(bound, dtype=np.int64)
        else:
            self.refs = buffers.buffer("refs", bound, np.int64)
            self.weights = buffers.buffer("weights", bound, np.int64)
        self.offsets: list[int] = []
        self.pos = 0

    def emit(
        self,
        segments: list[_Segment],
        manager: TextureManager,
        mode: FilterMode,
        ws: Workspace,
    ) -> None:
        refs, weights, pos = self.refs, self.weights, self.pos
        for block in _blocks(segments):
            grids = _block_grids(block, manager, mode, ws)
            for (seg, start, _), grid in zip(block, grids):
                at = pos
                if seg.done + start == 0:
                    self.offsets.append(pos)
                elif grid[0, 0] == refs[pos - 1]:
                    at -= 1
                carry = weights[at] if at < pos else 0
                runs, _ = collapse_runs(
                    grid.reshape(-1), out=(refs[at:], weights[at:]), workspace=ws
                )
                weights[at] += carry
                pos = at + len(runs)
        self.pos = pos

    def finish(self, n_fragments: int) -> FrameTrace:
        if self.owned:
            # Shrink in place: a realloc that gives back the unused tail
            # without copying, so the frame's trace owns exactly its
            # entries.
            self.refs.resize(self.pos, refcheck=False)
            self.weights.resize(self.pos, refcheck=False)
        return FrameTrace(
            refs=self.refs[: self.pos],
            weights=self.weights[: self.pos],
            n_fragments=n_fragments,
            object_offsets=np.array(self.offsets, dtype=np.int64),
        )


def _bbox_areas(screen_xy: np.ndarray, width: int, height: int) -> np.ndarray:
    """Each triangle's bounding box, clamped to the viewport, in pixels.

    The same clamp as :func:`~repro.raster.batch.rasterize_triangles`, so
    it bounds the triangle's fragments; a box with no pixel (NaN
    included) counts 0.
    """
    size = np.array([width, height], dtype=np.float64)
    p0, p1, p2 = screen_xy[:, 0], screen_xy[:, 1], screen_xy[:, 2]
    lo = np.clip(np.floor(np.minimum(np.minimum(p0, p1), p2)), 0.0, size)
    hi = np.clip(np.ceil(np.maximum(np.maximum(p0, p1), p2)), 0.0, size)
    extent = np.where(hi > lo, hi - lo, 0.0)
    return (extent[:, 0] * extent[:, 1]).astype(np.int64)


def _groups(carea: np.ndarray) -> Iterator[tuple[int, int]]:
    """Cut triangles into consecutive groups of at most ``GROUP_PIXELS``.

    ``carea`` is the running sum of the triangles' bounding-box areas,
    with a leading 0. Yields ``(start, stop)`` triangle ranges; a
    triangle larger than the budget is a group of its own.
    """
    n = len(carea) - 1
    start = 0
    while start < n:
        stop = int(np.searchsorted(carea, carea[start] + GROUP_PIXELS, "right")) - 1
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def _blocks(segments: list[_Segment]) -> Iterator[list[tuple[_Segment, int, int]]]:
    """Cut the segments' fragments into blocks of ``FRAGMENT_BLOCK``.

    Yields lists of ``(segment, start, stop)`` pieces in emission order.
    """
    block: list[tuple[_Segment, int, int]] = []
    room = FRAGMENT_BLOCK
    for seg in segments:
        start, n = 0, len(seg.u)
        while start < n:
            stop = min(n, start + room)
            block.append((seg, start, stop))
            room -= stop - start
            start = stop
            if room == 0:
                yield block
                block, room = [], FRAGMENT_BLOCK
    if block:
        yield block


def _block_grids(
    block: list[tuple[_Segment, int, int]],
    manager: TextureManager,
    mode: FilterMode,
    ws: Workspace,
) -> list[np.ndarray]:
    """Each piece's footprint grid, with one call per texture binding.

    Every row of a footprint grid depends only on its own fragment, so
    sampling the pieces that share a binding together and slicing the
    grid back gives the rows of separate calls. A secondary texture's
    grid is interleaved column-wise after the primary one's. The grids
    are consecutive slices of one workspace buffer, valid until the next
    block's.
    """
    groups: dict[tuple[int, int | None], list[int]] = {}
    for i, (seg, _, _) in enumerate(block):
        key = (seg.inst.texture_id, seg.inst.secondary_texture_id)
        groups.setdefault(key, []).append(i)
    grids: list[np.ndarray] = [None] * len(block)
    taps = texel_reads_per_fragment(mode)
    widths = [taps if sec is None else 2 * taps for _, sec in groups]
    sizes = [
        k * sum(block[i][2] - block[i][1] for i in members)
        for k, members in zip(widths, groups.values())
    ]
    arena = ws.buffer("grids", sum(sizes), np.int64)
    at = 0
    for ((tid, sec_tid), members), k, size in zip(groups.items(), widths, sizes):
        pieces = [block[i] for i in members]
        n = size // k
        u, v, lod = (
            _gathered([getattr(seg, col)[a:b] for seg, a, b in pieces], col, n, ws)
            for col in ("u", "v", "lod")
        )
        tex = pieces[0][0].tex
        grid = arena[at : at + size].reshape(n, k)
        at += size
        footprint_tiles_grid(
            tex, tid, u, v, lod, mode, out=grid[:, :taps], workspace=ws
        )
        if sec_tid is not None:
            sec = manager.texture(sec_tid)
            sec_lod = np.add(
                lod, secondary_lod_shift(tex, sec), out=ws.buffer("sec_lod", n)
            )
            footprint_tiles_grid(
                sec, sec_tid, u, v, sec_lod, mode, out=grid[:, taps:], workspace=ws
            )
        row = 0
        for i, (_, a, b) in zip(members, pieces):
            grids[i] = grid[row : row + b - a]
            row += b - a
    return grids


def _gathered(parts: list[np.ndarray], name: str, n: int, ws: Workspace):
    """``np.concatenate(parts)`` into workspace buffer ``block_{name}``;
    a single part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, out=ws.buffer(f"block_{name}", n))


def _select(frags: Fragments, mask: np.ndarray) -> Fragments:
    return Fragments(
        xs=frags.xs[mask],
        ys=frags.ys[mask],
        z=frags.z[mask],
        u=frags.u[mask],
        v=frags.v[mask],
        lod=frags.lod[mask],
    )
