"""Tests for the triangle rasterizer: coverage, attributes, LOD, ordering.

They drive the test oracle's per-triangle rasterizer, which the batched
production rasterizer matches bit for bit (``test_batch_differential``).
"""

import numpy as np
import pytest

from repro.raster.rasterizer import RasterOrder

from tests.oracle import rasterize_triangle


def raster(screen, inv_w=None, uv=None, z=None, wh=(32, 32), tex=(64, 64), **kw):
    screen = np.array(screen, dtype=np.float64)
    return rasterize_triangle(
        screen_xy=screen,
        inv_w=np.array(inv_w if inv_w is not None else [1.0, 1.0, 1.0]),
        uv=np.array(uv if uv is not None else [[0, 0], [1, 0], [0, 1]],
                    dtype=np.float64),
        z_ndc=np.array(z if z is not None else [0.0, 0.0, 0.0]),
        width=wh[0],
        height=wh[1],
        tex_width=tex[0],
        tex_height=tex[1],
        **kw,
    )


# Front faces are clockwise in pixel space (y down); this triangle covers
# the lower-left half of a 10x10 box (pixels with y >= x).
FRONT = [[0.0, 0.0], [0.0, 10.0], [10.0, 10.0]]


class TestCoverage:
    def test_front_face_rasterizes(self):
        frags = raster(FRONT)
        assert frags is not None
        assert len(frags) > 0

    def test_back_face_culled(self):
        frags = raster([FRONT[0], FRONT[2], FRONT[1]])
        assert frags is None

    def test_double_sided_rasterizes_back_face(self):
        frags = raster([FRONT[0], FRONT[2], FRONT[1]], double_sided=True)
        assert frags is not None
        assert len(frags) > 0

    def test_degenerate_skipped(self):
        assert raster([[0, 0], [5, 5], [10, 10]]) is None

    def test_offscreen_skipped(self):
        assert raster([[100, 100], [100, 110], [110, 110]], wh=(32, 32)) is None

    def test_clamps_to_viewport(self):
        frags = raster([[-10.0, -10.0], [-10.0, 50.0], [50.0, 50.0]], wh=(8, 8))
        assert frags.xs.min() >= 0
        assert frags.xs.max() < 8
        assert frags.ys.min() >= 0
        assert frags.ys.max() < 8

    def test_half_box_coverage_count(self):
        # The lower-left triangle of a 10x10 box covers ~half its pixels.
        frags = raster(FRONT)
        assert 40 <= len(frags) <= 60

    def test_pixel_centers_inside(self):
        frags = raster(FRONT)
        # Every fragment center must satisfy y >= x (the diagonal) within
        # half-pixel tolerance.
        assert np.all(frags.ys + 0.5 >= frags.xs + 0.5 - 1e-9)

    def test_sub_pixel_triangle_may_miss_all_centers(self):
        frags = raster([[0.6, 0.6], [0.6, 0.9], [0.9, 0.9]])
        assert frags is None


class TestAttributes:
    def test_affine_uv_at_vertices(self):
        frags = raster(FRONT, uv=[[0, 0], [0, 1], [1, 1]])
        # Fragment nearest vertex 0 (pixel 0,0 center at 0.5,0.5).
        i = np.argmin(frags.xs**2 + frags.ys**2)
        assert frags.u[i] == pytest.approx(0.05, abs=0.03)
        assert frags.v[i] == pytest.approx(0.05, abs=0.03)

    def test_affine_z_interpolation(self):
        frags = raster(FRONT, z=[0.0, 1.0, 1.0])
        i = np.argmin(np.abs(frags.xs - 0) + np.abs(frags.ys - 9))
        assert frags.z[i] == pytest.approx(0.95, abs=0.1)

    def test_perspective_correct_uv(self):
        # Vertex 1 is twice as far (w=2 -> inv_w=0.5). With uv [0..1] along
        # the edge, the texture midpoint u=0.5 appears at the screen point
        # where 1/w interpolates to 0.75 of the near value... verify against
        # the closed form u(s) = s*inv_w1 / (s*inv_w1 + (1-s)*inv_w0) for
        # screen parameter s along the 0->1 edge.
        frags = raster(
            [[0.0, 0.0], [0.0, 16.0], [16.0, 16.0]],
            inv_w=[1.0, 1.0, 0.5],
            uv=[[0, 0], [0, 0], [1, 0]],
        )
        # Pick fragments near the diagonal edge (x == y) where interpolation
        # runs from vertex 0 to vertex 1.
        on_edge = frags.xs == frags.ys
        s = (frags.xs[on_edge] + 0.5) / 16.0
        expected = (s * 0.5) / (s * 0.5 + (1 - s) * 1.0)
        assert np.allclose(frags.u[on_edge], expected, atol=0.05)

    def test_uniform_w_reduces_to_affine(self):
        a = raster(FRONT, inv_w=[2.0, 2.0, 2.0], uv=[[0, 0], [0, 1], [1, 1]])
        b = raster(FRONT, inv_w=[1.0, 1.0, 1.0], uv=[[0, 0], [0, 1], [1, 1]])
        assert np.allclose(a.u, b.u)
        assert np.allclose(a.v, b.v)


class TestLOD:
    def _lod_for_scale(self, pixels, uv_max):
        """Rasterize a triangle whose texture repeats uv_max over `pixels`."""
        frags = raster(
            [[0.0, 0.0], [0.0, float(pixels)], [float(pixels), float(pixels)]],
            uv=[[0, 0], [0, uv_max], [uv_max, uv_max]],
            wh=(64, 64),
            tex=(64, 64),
        )
        return float(np.median(frags.lod))

    def test_one_to_one_mapping_has_lod_zero(self):
        # 64 texels over 64 pixels: 1:1 -> lod ~ 0.
        assert self._lod_for_scale(64, 1.0) == pytest.approx(0.0, abs=0.1)

    def test_minification_raises_lod(self):
        # 64 texels over 16 pixels: 4 texels/pixel -> lod ~ 2.
        assert self._lod_for_scale(16, 1.0) == pytest.approx(2.0, abs=0.1)

    def test_magnification_lowers_lod(self):
        # 64 texels over 128 pixels -> lod ~ -1.
        frags = raster(
            [[0.0, 0.0], [0.0, 128.0], [128.0, 128.0]],
            uv=[[0, 0], [0, 1], [1, 1]],
            wh=(128, 128),
        )
        assert float(np.median(frags.lod)) == pytest.approx(-1.0, abs=0.1)

    def test_repeat_uv_raises_lod(self):
        # 4x UV repeat quadruples texel density: lod increases by 2.
        base = self._lod_for_scale(64, 1.0)
        repeated = self._lod_for_scale(64, 4.0)
        assert repeated - base == pytest.approx(2.0, abs=0.1)


class TestOrdering:
    def test_scanline_order_row_major(self):
        frags = raster(FRONT)
        order = np.lexsort((frags.xs, frags.ys))
        assert np.array_equal(order, np.arange(len(frags)))

    def test_tiled_order_groups_tiles(self):
        frags = raster(
            [[0.0, 0.0], [0.0, 32.0], [32.0, 32.0]], order=RasterOrder.TILED
        )
        tile_keys = (frags.ys // 8) * 100 + (frags.xs // 8)
        # Tile keys must be non-decreasing: all of a tile's fragments are
        # emitted before the next tile starts.
        assert np.all(np.diff(tile_keys) >= 0) or len(
            np.unique(tile_keys)
        ) == len(set(tile_keys.tolist()))
        # Stronger check: each tile appears as one contiguous run.
        changes = np.count_nonzero(np.diff(tile_keys))
        assert changes == len(np.unique(tile_keys)) - 1

    def test_tiled_order_pinned(self):
        # Regression for the lexsort-key fix: the 2-key sort (tile row,
        # tile col — stable over the scanline input) must reproduce the
        # old 4-key sort (xs, ys, xs//8, ys//8) exactly: tiles in (tile
        # row, tile col) order, scanline order within each tile.
        for verts in (
            FRONT,
            [[0.0, 0.0], [0.0, 32.0], [32.0, 32.0]],
            [[3.0, 1.0], [27.5, 30.0], [30.0, 4.5]],
        ):
            scan = raster(verts)
            tiled = raster(verts, order=RasterOrder.TILED)
            old_key = np.lexsort(
                (scan.xs, scan.ys, scan.xs // 8, scan.ys // 8)
            )
            assert np.array_equal(tiled.xs, scan.xs[old_key])
            assert np.array_equal(tiled.ys, scan.ys[old_key])
            assert np.array_equal(tiled.u, scan.u[old_key])
            assert np.array_equal(tiled.v, scan.v[old_key])
            assert np.array_equal(tiled.z, scan.z[old_key])
            assert np.array_equal(tiled.lod, scan.lod[old_key])
