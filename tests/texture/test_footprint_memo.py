"""The footprint kernel's memoized level tables.

:func:`~repro.texture.sampler.footprint_tiles_grid` reads each binding's
per-level dimensions, packed ``(tid, mip)`` bases and power-of-two flag
from tables memoized by ``(width, height, tid)``. A memo keyed too
coarsely would hand one binding another's bases; these tests reuse
texture objects, ids and sizes in the orders that would expose that, and
check the grids against the test oracle's per-tap packing.
"""

import numpy as np
import pytest

from repro.geometry.mesh import MeshInstance
from repro.geometry.primitives import make_quad
from repro.geometry.transforms import translation
from repro.raster import pipeline
from repro.raster.pipeline import RenderOptions, Renderer
from repro.texture.manager import TextureManager
from repro.texture.sampler import FilterMode, footprint_tiles_grid
from repro.texture.texture import Texture

from tests.oracle import ReferenceRenderer, reference_footprint_tiles_grid
from tests.raster.test_pipeline import camera

MODES = list(FilterMode)


def fragments(n=500, seed=3):
    """Coordinates well outside [0, 1) and LODs past both pyramid ends."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-2, 3, n), rng.uniform(-2, 3, n), rng.uniform(-1, 9, n)


def assert_oracle_grid(tex, tid, mode):
    u, v, lod = fragments()
    np.testing.assert_array_equal(
        footprint_tiles_grid(tex, tid, u, v, lod, mode),
        reference_footprint_tiles_grid(tex, tid, u, v, lod, mode),
    )


@pytest.mark.parametrize("mode", MODES)
def test_one_texture_under_two_tids(mode):
    tex = Texture("shared", 64, 32)
    for tid in (3, 9, 3):
        assert_oracle_grid(tex, tid, mode)


@pytest.mark.parametrize("mode", MODES)
def test_equal_sized_textures(mode):
    a, b = Texture("a", 64, 64), Texture("b", 64, 64)
    for tex, tid in ((a, 1), (b, 2), (a, 1), (b, 1)):
        assert_oracle_grid(tex, tid, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("size", [(64, 32), (48, 20)], ids=["pow2", "npot"])
def test_renderer_across_a_block_boundary(size, mode, monkeypatch):
    """Masked (power-of-two) and modular wraps both emit the oracle's trace."""
    mgr = TextureManager()
    tid = mgr.load(Texture("t", *size))
    instances = [MeshInstance(make_quad(8.0, 8.0), translation(0, 0, 0), tid)]
    opts = RenderOptions(width=32, height=32, filter_mode=mode)
    monkeypatch.setattr(pipeline, "FRAGMENT_BLOCK", 7)
    got = Renderer(instances, mgr, opts).render_frame(camera()).trace
    want = ReferenceRenderer(instances, mgr, opts).render_frame(camera()).trace
    assert got.n_fragments > 7
    np.testing.assert_array_equal(got.refs, want.refs)
    np.testing.assert_array_equal(got.weights, want.weights)
