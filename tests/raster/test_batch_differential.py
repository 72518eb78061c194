"""Differential proof: batched rasterizer == per-triangle reference, bitwise.

The batched engine (:mod:`repro.raster.batch`, and the pipeline built on
it) must be *bit-identical* — not merely close — to the per-triangle
reference of the test oracle (:mod:`tests.oracle`), for every field of
every fragment and for the final packed
trace streams, under both raster orders, with clipped geometry, secondary
textures, depth testing, and shading. These tests are that proof.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raster.batch import FragmentBatch, rasterize_triangles
from repro.raster.pipeline import RenderOptions, Renderer
from repro.raster.rasterizer import RasterOrder
from repro.scenes import WORKLOAD_BUILDERS
from repro.texture.sampler import FilterMode
from repro.trace.trace import FrameTrace
from repro.workspace import Workspace

from tests.oracle import ReferenceRenderer, rasterize_triangle
from tests.raster.test_pipeline import camera, simple_scene

W, H = 48, 40
TEXW, TEXH = 64, 32


def reference_batch(
    screen, inv_w, uv, z_ndc, double_sided, order, tex_w=TEXW, tex_h=TEXH
):
    """The ground truth: the per-triangle loop, concatenated.

    ``tex_w``/``tex_h`` are scalars or per-triangle arrays.
    """
    cols = {k: [] for k in ("xs", "ys", "z", "u", "v", "lod", "tri_ids")}
    n = screen.shape[0]
    tex_w, tex_h = np.broadcast_to(tex_w, n), np.broadcast_to(tex_h, n)
    for i in range(n):
        frags = rasterize_triangle(
            screen_xy=screen[i],
            inv_w=inv_w[i],
            uv=uv[i],
            z_ndc=z_ndc[i],
            width=W,
            height=H,
            tex_width=tex_w[i],
            tex_height=tex_h[i],
            double_sided=double_sided,
            order=order,
        )
        if frags is None:
            continue
        for k in ("xs", "ys", "z", "u", "v", "lod"):
            cols[k].append(getattr(frags, k))
        cols["tri_ids"].append(np.full(len(frags), i, dtype=np.int64))
    if not cols["xs"]:
        return None
    return {k: np.concatenate(v) for k, v in cols.items()}


def assert_batches_identical(batch: FragmentBatch, ref: dict | None):
    if ref is None:
        assert len(batch) == 0
        return
    for k in ("xs", "ys", "z", "u", "v", "lod", "tri_ids"):
        got = getattr(batch, k if k != "tri_ids" else "tri_ids")
        np.testing.assert_array_equal(got, ref[k], err_msg=k)
        assert got.dtype == ref[k].dtype, k


coord = st.floats(-30.0, 80.0)
invw = st.floats(0.05, 4.0)
uvc = st.floats(-2.0, 3.0)
zc = st.floats(-1.0, 1.0)


@st.composite
def triangle_batches(draw):
    n = draw(st.integers(0, 12))
    screen = np.array(
        [[draw(coord) for _ in range(6)] for _ in range(n)], dtype=np.float64
    ).reshape(n, 3, 2)
    inv_w = np.array(
        [[draw(invw) for _ in range(3)] for _ in range(n)], dtype=np.float64
    ).reshape(n, 3)
    uv = np.array(
        [[draw(uvc) for _ in range(6)] for _ in range(n)], dtype=np.float64
    ).reshape(n, 3, 2)
    z = np.array(
        [[draw(zc) for _ in range(3)] for _ in range(n)], dtype=np.float64
    ).reshape(n, 3)
    return screen, inv_w, uv, z


# Vertex coordinates that stress span ends: pixel centres (k + 0.5) and
# pixel edges, plain floats, and off-screen magnitudes.
adv_coord = st.one_of(
    st.integers(-4, 52).map(lambda k: k + 0.5),
    st.integers(-4, 52).map(float),
    coord,
    st.sampled_from([1e6, -1e6, 1e9, -1e9]),
)


@st.composite
def adversarial_triangle(draw):
    p = np.array([[draw(adv_coord), draw(adv_coord)] for _ in range(3)])
    shape = draw(st.sampled_from(["free", "horizontal", "vertical", "both",
                                  "sliver", "wide"]))
    if shape in ("horizontal", "both"):
        p[1, 1] = p[0, 1]  # an edge with b == 0
    if shape in ("vertical", "both"):
        p[2, 0] = p[1, 0]
    if shape == "sliver":
        # Third vertex a hair off the line through the first two, so
        # |area2| is near zero (or exactly zero).
        t = draw(st.floats(-1.0, 2.0))
        eps = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
        p[2] = p[0] + t * (p[1] - p[0]) + np.array([eps, -eps])
    if shape == "wide":
        # Rows spanning the viewport: wider than small interpolation blocks.
        y = draw(st.integers(0, H - 1)) + 0.5
        p = np.array([[-10.0, y - draw(st.floats(0.1, 30.0))],
                      [W + 10.0, y + draw(st.floats(0.1, 30.0))],
                      [draw(adv_coord), draw(adv_coord)]])
    return p


@st.composite
def adversarial_batches(draw):
    n = draw(st.integers(1, 8))
    screen = np.array([draw(adversarial_triangle()) for _ in range(n)])
    inv_w = np.array(
        [[draw(invw) for _ in range(3)] for _ in range(n)], dtype=np.float64
    )
    uv = np.array(
        [[draw(uvc) for _ in range(6)] for _ in range(n)], dtype=np.float64
    ).reshape(n, 3, 2)
    z = np.array(
        [[draw(zc) for _ in range(3)] for _ in range(n)], dtype=np.float64
    )
    return screen, inv_w, uv, z


class TestKernelDifferential:
    @given(triangle_batches(), st.booleans(),
           st.sampled_from([RasterOrder.SCANLINE, RasterOrder.TILED]))
    @settings(max_examples=150, deadline=None)
    def test_property_bit_identical(self, batch_args, double_sided, order):
        screen, inv_w, uv, z = batch_args
        got = rasterize_triangles(
            screen_xy=screen, inv_w=inv_w, uv=uv, z_ndc=z,
            width=W, height=H, tex_width=TEXW, tex_height=TEXH,
            double_sided=double_sided, order=order,
        )
        ref = reference_batch(screen, inv_w, uv, z, double_sided, order)
        assert_batches_identical(got, ref)

    @given(adversarial_batches(), st.booleans(),
           st.sampled_from([RasterOrder.SCANLINE, RasterOrder.TILED]),
           st.sampled_from([1, 3, 16, 100, None]))
    @settings(max_examples=200, deadline=None)
    def test_property_adversarial_spans_bit_identical(
        self, batch_args, double_sided, order, block
    ):
        # Span ends where rounding is hardest: huge off-screen vertices,
        # near-zero areas, edges through pixel centres, b == 0 edges, and
        # rows wider than an interpolation block.
        screen, inv_w, uv, z = batch_args
        extra = {} if block is None else {"block_fragments": block}
        got = rasterize_triangles(
            screen_xy=screen, inv_w=inv_w, uv=uv, z_ndc=z,
            width=W, height=H, tex_width=TEXW, tex_height=TEXH,
            double_sided=double_sided, order=order, **extra,
        )
        ref = reference_batch(screen, inv_w, uv, z, double_sided, order)
        assert_batches_identical(got, ref)

    @given(triangle_batches())
    @settings(max_examples=30, deadline=None)
    def test_property_block_budget_invariant(self, batch_args):
        # Tiny fragment budgets split rows across interpolation blocks;
        # the result must not depend on the blocking.
        screen, inv_w, uv, z = batch_args
        full = rasterize_triangles(
            screen_xy=screen, inv_w=inv_w, uv=uv, z_ndc=z,
            width=W, height=H, tex_width=TEXW, tex_height=TEXH,
            double_sided=True,
        )
        small = rasterize_triangles(
            screen_xy=screen, inv_w=inv_w, uv=uv, z_ndc=z,
            width=W, height=H, tex_width=TEXW, tex_height=TEXH,
            double_sided=True, block_fragments=7,
        )
        assert_batches_identical(small, None if len(full) == 0 else {
            "xs": full.xs, "ys": full.ys, "z": full.z, "u": full.u,
            "v": full.v, "lod": full.lod, "tri_ids": full.tri_ids,
        })

    def test_empty_batch(self):
        got = rasterize_triangles(
            screen_xy=np.empty((0, 3, 2)), inv_w=np.empty((0, 3)),
            uv=np.empty((0, 3, 2)), z_ndc=np.empty((0, 3)),
            width=W, height=H, tex_width=TEXW, tex_height=TEXH,
        )
        assert len(got) == 0
        assert got.fragment_counts(0).shape == (0,)

    def test_fragment_counts(self):
        screen = np.array(
            [[[0, 0], [0, 10], [10, 10]],    # front
             [[0, 0], [10, 10], [0, 10]],    # back face: culled
             [[0, 0], [0, 10], [10, 10]]],   # front again
            dtype=np.float64,
        )
        got = rasterize_triangles(
            screen_xy=screen, inv_w=np.ones((3, 3)),
            uv=np.tile(np.array([[0, 0], [1, 0], [0, 1]], dtype=np.float64), (3, 1, 1)),
            z_ndc=np.zeros((3, 3)),
            width=W, height=H, tex_width=TEXW, tex_height=TEXH,
        )
        counts = got.fragment_counts(3)
        assert counts[1] == 0
        assert counts[0] == counts[2] > 0
        # tri_ids group fragments by triangle in input order.
        assert np.all(np.diff(got.tri_ids) >= 0)


def _strip(n_tris, y0=0.0):
    """``n_tris`` overlapping front faces along a strip (area2 < 0)."""
    k = np.arange(n_tris, dtype=np.float64)
    x = 3.0 * k - 4.0
    screen = np.stack(
        [np.stack([x, np.full(n_tris, y0)], 1),
         np.stack([x + 5.0, np.full(n_tris, y0 + 30.0)], 1),
         np.stack([x + 9.0, np.full(n_tris, y0 + 2.0)], 1)], 1
    )
    inv_w = 1.0 / (1.0 + 0.1 * np.arange(3 * n_tris).reshape(n_tris, 3))
    uv = np.stack([np.sin(screen[..., 0] * 0.37), np.cos(screen[..., 1] * 0.23)], -1)
    z = np.linspace(-0.9, 0.9, 3 * n_tris).reshape(n_tris, 3)
    return screen, inv_w, uv, z


def _as_dict(batch: FragmentBatch) -> dict:
    """A copy of every field: workspace views die at the next call."""
    return {k: getattr(batch, k).copy() for k in (
        "xs", "ys", "z", "u", "v", "lod", "tri_ids")}


def _assert_same_bytes(got: dict, want: FragmentBatch):
    for k, arr in got.items():
        ref = getattr(want, k)
        assert arr.dtype == ref.dtype, k
        assert arr.tobytes() == ref.tobytes(), k


def _culled(args):
    """The same triangles wound backwards: all culled when single-sided."""
    screen, inv_w, uv, z = args
    return screen[:, ::-1].copy(), inv_w, uv, z


class TestWorkspaceReuse:
    """One workspace through many calls equals a fresh call, byte for byte."""

    def run_sequence(self, cases, block=None):
        self.fragments = []
        ws = Workspace()
        extra = {} if block is None else {"block_fragments": block}
        for (screen, inv_w, uv, z), ds, order, tex in cases:
            tw, th = tex if tex is not None else (TEXW, TEXH)
            kwargs = dict(
                screen_xy=screen, inv_w=inv_w, uv=uv, z_ndc=z, width=W,
                height=H, tex_width=tw, tex_height=th, double_sided=ds,
                order=order, **extra,
            )
            got = _as_dict(rasterize_triangles(workspace=ws, **kwargs))
            self.fragments.append(len(got["xs"]))
            fresh = rasterize_triangles(**kwargs)
            _assert_same_bytes(got, fresh)
            ref = reference_batch(screen, inv_w, uv, z, ds, order, tw, th)
            assert_batches_identical(FragmentBatch(**got), ref)

    def test_grow_shrink_empty_culled_per_triangle_tiled(self):
        S, T = RasterOrder.SCANLINE, RasterOrder.TILED
        big, small = _strip(14), _strip(2, y0=7.0)
        n = len(big[0])
        per_tri = (
            np.arange(n, dtype=np.float64) % 3 * 32.0 + 16.0,
            np.arange(n, dtype=np.float64) % 2 * 64.0 + 8.0,
        )
        empty = (np.empty((0, 3, 2)), np.empty((0, 3)), np.empty((0, 3, 2)),
                 np.empty((0, 3)))
        self.run_sequence([
            (small, False, S, None),
            (big, False, S, None),        # grows every buffer
            (small, False, S, None),      # shrinks: views of longer buffers
            (empty, False, S, None),
            (_culled(big), False, S, None),  # every triangle culled
            (big, False, S, per_tri),     # per-triangle texture dims
            (big, False, T, None),        # tiled order
            (_culled(big), True, T, per_tri),  # double-sided, tiled
            (small, False, S, None),
        ], block=128)
        small_n, big_n = self.fragments[:2]
        assert 0 < small_n < big_n > 4 * 128  # big spans several blocks
        assert self.fragments[3:5] == [0, 0]
        assert self.fragments[7] == big_n

    @given(st.lists(
        st.tuples(
            st.one_of(triangle_batches(), adversarial_batches()),
            st.booleans(),
            st.sampled_from([RasterOrder.SCANLINE, RasterOrder.TILED]),
        ),
        min_size=2, max_size=6,
    ), st.sampled_from([1, 5, 64, None]))
    @settings(max_examples=60, deadline=None)
    def test_property_sequence_bit_identical(self, cases, block):
        self.run_sequence([(args, ds, order, None) for args, ds, order in cases],
                          block)

    def test_outputs_are_workspace_views(self):
        # The contract: a call's arrays are overwritten by the next call
        # with the same workspace; a call without one owns its arrays.
        args = _strip(6)
        kwargs = dict(width=W, height=H, tex_width=TEXW, tex_height=TEXH)
        ws = Workspace()
        a = rasterize_triangles(*args, workspace=ws, **kwargs)
        b = rasterize_triangles(*args, workspace=ws, **kwargs)
        assert len(a) > 0
        for k in ("xs", "ys", "z", "u", "v", "lod", "tri_ids"):
            assert np.shares_memory(getattr(a, k), getattr(b, k)), k
        c = rasterize_triangles(*args, **kwargs)
        d = rasterize_triangles(*args, **kwargs)
        assert not np.shares_memory(c.u, d.u)


def _frame_equal(a, b, check_image):
    assert np.array_equal(a.trace.refs, b.trace.refs)
    assert np.array_equal(a.trace.weights, b.trace.weights)
    assert a.trace.n_fragments == b.trace.n_fragments
    assert np.array_equal(a.trace.object_offsets, b.trace.object_offsets)
    assert a.culled_instances == b.culled_instances
    assert a.rasterized_triangles == b.rasterized_triangles
    if check_image:
        assert np.array_equal(a.image, b.image)


def render_both(instances, mgr, options, n_frames=2):
    ref = ReferenceRenderer(instances, mgr, options)
    bat = Renderer(instances, mgr, options)
    cams = [camera() for _ in range(n_frames)]
    return (
        list(ref.iter_frames(cams)),
        list(bat.iter_frames(cams)),
    )


class TestPipelineDifferential:
    @pytest.mark.parametrize("order", [RasterOrder.SCANLINE, RasterOrder.TILED])
    @pytest.mark.parametrize("z_first", [False, True])
    def test_trace_identical(self, order, z_first):
        instances, mgr = simple_scene(two_quads=True)
        opts = RenderOptions(width=32, height=32, order=order,
                             z_before_texture=z_first,
                             filter_mode=FilterMode.TRILINEAR)
        for a, b in zip(*render_both(instances, mgr, opts)):
            _frame_equal(a, b, check_image=False)

    def test_shaded_image_identical(self):
        instances, mgr = simple_scene(with_images=True, two_quads=True)
        opts = RenderOptions(width=32, height=32, shade=True,
                             filter_mode=FilterMode.BILINEAR)
        for a, b in zip(*render_both(instances, mgr, opts)):
            _frame_equal(a, b, check_image=True)


class TestWorkloadDifferential:
    """City + Village + terrain: real scenes with clipping and multi-texture."""

    @pytest.mark.parametrize("workload", ["city", "village", "terrain"])
    @pytest.mark.parametrize("order", [RasterOrder.SCANLINE, RasterOrder.TILED])
    def test_workload_trace_identical(self, workload, order):
        wl = WORKLOAD_BUILDERS[workload](detail=0.25)
        opts = RenderOptions(width=96, height=72, order=order,
                             filter_mode=FilterMode.BILINEAR)
        cams = wl.cameras(2)
        ref = ReferenceRenderer(wl.scene.instances, wl.scene.manager, opts)
        bat = Renderer(wl.scene.instances, wl.scene.manager, opts)
        for a, b in zip(ref.iter_frames(cams), bat.iter_frames(cams)):
            _frame_equal(a, b, check_image=False)


class _CopyingSink:
    """A ``write_frames`` writer that copies each frame, as writers must."""

    def __init__(self):
        self.frames: list[FrameTrace] = []
        self.views: list[np.ndarray] = []

    def append_frame(self, frame):
        self.views.append(frame.refs)
        self.frames.append(FrameTrace(
            refs=frame.refs.copy(), weights=frame.weights.copy(),
            n_fragments=frame.n_fragments,
            object_offsets=frame.object_offsets.copy(),
        ))


def _trace_equal(a, b):
    assert np.array_equal(a.refs, b.refs)
    assert np.array_equal(a.weights, b.weights)
    assert a.n_fragments == b.n_fragments
    assert np.array_equal(a.object_offsets, b.object_offsets)


class TestRenderLoopDifferential:
    """Several frames through one loop's workspace equal the oracle's."""

    @pytest.mark.parametrize("workload", ["city", "village", "terrain"])
    def test_iter_and_write_frames_match_oracle(self, workload):
        wl = WORKLOAD_BUILDERS[workload](detail=0.25)
        opts = RenderOptions(width=96, height=72,
                             filter_mode=FilterMode.TRILINEAR)
        cams = wl.cameras(5)
        want = list(ReferenceRenderer(
            wl.scene.instances, wl.scene.manager, opts).iter_frames(cams))
        bat = Renderer(wl.scene.instances, wl.scene.manager, opts)
        got = list(bat.iter_frames(cams))
        sink = _CopyingSink()
        bat.write_frames(cams, sink)
        assert len(got) == len(sink.frames) == len(want)
        for a, b, c in zip(want, got, sink.frames):
            _frame_equal(a, b, check_image=False)
            _trace_equal(a.trace, c)
        # iter_frames' frames own their arrays; write_frames' frames are
        # views of buffers the loop reuses.
        assert not any(
            np.shares_memory(a.trace.refs, b.trace.refs)
            for a, b in zip(got, got[1:])
        )
        assert any(
            np.shares_memory(a, b) for a, b in zip(sink.views, sink.views[1:])
        )
