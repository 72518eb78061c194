"""Property tests for the rasterizer's geometric invariants.

They drive the test oracle's per-triangle rasterizer, which the batched
production rasterizer matches bit for bit (``test_batch_differential``).
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tests.oracle import rasterize_triangle

coord = st.floats(-20.0, 52.0)
triangle = st.tuples(coord, coord, coord, coord, coord, coord)


def raster(verts, inv_w=(1.0, 1.0, 1.0), uv=None, wh=(32, 32), **kw):
    p = np.array(verts, dtype=np.float64).reshape(3, 2)
    return rasterize_triangle(
        screen_xy=p,
        inv_w=np.array(inv_w, dtype=np.float64),
        uv=np.array(uv if uv is not None else [[0, 0], [1, 0], [0, 1]],
                    dtype=np.float64),
        z_ndc=np.zeros(3),
        width=wh[0],
        height=wh[1],
        tex_width=64,
        tex_height=64,
        **kw,
    )


class TestGeometricInvariants:
    @given(triangle)
    @settings(max_examples=200, deadline=None)
    def test_property_fragments_inside_viewport(self, verts):
        frags = raster(verts, double_sided=True)
        if frags is None:
            return
        assert frags.xs.min() >= 0 and frags.xs.max() < 32
        assert frags.ys.min() >= 0 and frags.ys.max() < 32

    @given(triangle)
    @settings(max_examples=200, deadline=None)
    def test_property_no_duplicate_pixels(self, verts):
        frags = raster(verts, double_sided=True)
        if frags is None:
            return
        keys = frags.ys.astype(np.int64) * 1000 + frags.xs
        assert len(np.unique(keys)) == len(keys)

    @given(triangle)
    @settings(max_examples=200, deadline=None)
    def test_property_coverage_bounded_by_area(self, verts):
        frags = raster(verts, double_sided=True)
        if frags is None:
            return
        p = np.array(verts).reshape(3, 2)
        area = abs(
            (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
            - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1])
        ) / 2.0
        # Pixel-center sampling can cover at most area + perimeter-ish
        # slack; use a generous geometric bound.
        perimeter = sum(
            np.linalg.norm(p[(i + 1) % 3] - p[i]) for i in range(3)
        )
        assert len(frags) <= area + perimeter + 4

    @given(
        st.tuples(*[st.floats(10.0, 40.0)] * 6),
        st.integers(-8, 8),
        st.integers(-8, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_integer_translation_equivariance(self, verts, dx, dy):
        """A triangle fully in view translated by whole pixels rasterizes
        to the exact translate of its pixel set."""
        p = np.array(verts).reshape(3, 2)
        # The invariant only holds when the translation itself is exact:
        # adding an integer to a full-mantissa double can cross a binade
        # and round, nudging an edge by an ULP across a pixel center.
        assume(np.all((p + np.array([dx, dy])) - np.array([dx, dy]) == p))
        a = raster(p, wh=(64, 64), double_sided=True)
        b = raster(p + np.array([dx, dy]), wh=(64, 64), double_sided=True)

        def pixels(frags):
            if frags is None:
                return set()
            return set(zip(frags.xs.tolist(), frags.ys.tolist()))

        assert pixels(b) == {(x + dx, y + dy) for x, y in pixels(a)}

    @given(triangle)
    @settings(max_examples=150, deadline=None)
    def test_property_winding_reversal_same_coverage(self, verts):
        p = np.array(verts).reshape(3, 2)
        area2 = (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - (
            p[2, 0] - p[0, 0]
        ) * (p[1, 1] - p[0, 1])
        # Near-degenerate slivers are rounding-asymmetric under winding
        # reversal; the invariant is only meaningful for real triangles.
        assume(abs(area2) > 1e-6)
        fwd = raster(p, double_sided=True)
        rev = raster(p[::-1], double_sided=True)
        def pixels(f):
            if f is None:
                return set()
            return set(zip(f.xs.tolist(), f.ys.tolist()))
        assert pixels(fwd) == pixels(rev)

    @given(triangle)
    @settings(max_examples=150, deadline=None)
    def test_property_affine_uv_in_hull(self, verts):
        uv = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        frags = raster(verts, uv=uv, double_sided=True)
        if frags is None:
            return
        eps = 1e-6
        assert np.all(frags.u >= -eps)
        assert np.all(frags.v >= -eps)
        assert np.all(frags.u + frags.v <= 1.0 + eps)

    @given(triangle, st.floats(0.1, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_property_uniform_w_scale_invariant(self, verts, w):
        """Scaling all 1/w by a constant must not change u, v, or coverage."""
        a = raster(verts, inv_w=(1.0, 1.0, 1.0), double_sided=True)
        b = raster(verts, inv_w=(w, w, w), double_sided=True)
        if a is None:
            assert b is None
            return
        assert np.allclose(a.u, b.u, atol=1e-9)
        assert np.allclose(a.v, b.v, atol=1e-9)
