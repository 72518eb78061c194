"""Differential proof: production footprints == the per-tap reference, bitwise.

:func:`repro.texture.sampler.footprint_tiles_grid` wraps each axis once
(a mask on power-of-two levels), derives the ``+1`` tap's wrap from it,
shifts texels to tiles and writes every column into one preallocated grid. The test oracle
(:func:`tests.oracle.reference_footprint_tiles_grid`) packs every tap from
scratch with its own ``np.mod``. They must agree on every reference under
all three filter modes, for any texture shape, coordinate and LOD.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.texture.sampler import FilterMode, footprint_tiles_grid
from repro.texture.texture import Texture

from tests.oracle import reference_footprint_tiles_grid

# Non-power-of-two, 1xN and Nx1 shapes alongside the usual squares.
dims = st.one_of(
    st.integers(1, 300),
    st.sampled_from([1, 2, 3, 4, 5, 7, 64, 100, 256, 257]),
)


@st.composite
def footprint_inputs(draw):
    w, h = draw(dims), draw(dims)
    tex = Texture("t", w, h)
    n_levels = tex.level_count
    n = draw(st.integers(0, 40))

    def coord(size):
        # Texel centres and edges of level 0, including the last texel
        # (whose +1 tap wraps), far outside [0, 1), and plain floats.
        on_grid = st.builds(
            lambda i, frac: (i + frac) / size,
            st.integers(-2 * size, 3 * size),
            st.sampled_from([0.0, 0.25, 0.5, 0.999]),
        )
        return st.one_of(
            on_grid,
            st.floats(-3.0, 4.0),
            st.sampled_from(
                [0.0, 1.0, -1.0, 1.0 - 1e-12, (size - 0.5) / size, 1e6, -1e6]
            ),
        )

    u = np.array(draw(st.lists(coord(w), min_size=n, max_size=n)), dtype=np.float64)
    v = np.array(draw(st.lists(coord(h), min_size=n, max_size=n)), dtype=np.float64)
    lod = np.array(
        draw(
            st.lists(
                st.one_of(
                    st.floats(-4.0, n_levels + 4.0),
                    # Level boundaries, nearest-level ties, and LODs past
                    # the last level.
                    st.integers(-2, n_levels + 3).map(float),
                    st.integers(-2, n_levels + 3).map(lambda k: k + 0.5),
                ),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.float64,
    )
    tid = draw(st.integers(0, (1 << 14) - 1))
    return tex, tid, u, v, lod


@pytest.mark.parametrize("mode", list(FilterMode))
@given(args=footprint_inputs())
@settings(max_examples=150, deadline=None)
def test_property_footprint_bit_identical(mode, args):
    tex, tid, u, v, lod = args
    got = footprint_tiles_grid(tex, tid, u, v, lod, mode)
    ref = reference_footprint_tiles_grid(tex, tid, u, v, lod, mode)
    assert got.dtype == ref.dtype == np.int64
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got, ref)


def test_last_texel_wraps_to_first_tile():
    # A 6x5 texture at level 0: the bilinear taps of the last texel
    # centre's right/bottom neighbour wrap to column/row 0.
    tex = Texture("t", 6, 5)
    u = np.array([1.0])
    v = np.array([1.0])
    got = footprint_tiles_grid(tex, 3, u, v, np.zeros(1), FilterMode.BILINEAR)
    ref = reference_footprint_tiles_grid(tex, 3, u, v, np.zeros(1), FilterMode.BILINEAR)
    np.testing.assert_array_equal(got, ref)
    assert len(np.unique(got)) == 4


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        footprint_tiles_grid(Texture("t", 4, 4), 0, np.zeros(1), np.zeros(1),
                             np.zeros(1), "bilinear")
