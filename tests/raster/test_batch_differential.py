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

from tests.oracle import ReferenceRenderer, rasterize_triangle
from tests.raster.test_pipeline import camera, simple_scene

W, H = 48, 40
TEXW, TEXH = 64, 32


def reference_batch(screen, inv_w, uv, z_ndc, double_sided, order):
    """The ground truth: the per-triangle loop, concatenated."""
    cols = {k: [] for k in ("xs", "ys", "z", "u", "v", "lod", "tri_ids")}
    for i in range(screen.shape[0]):
        frags = rasterize_triangle(
            screen_xy=screen[i],
            inv_w=inv_w[i],
            uv=uv[i],
            z_ndc=z_ndc[i],
            width=W,
            height=H,
            tex_width=TEXW,
            tex_height=TEXH,
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
