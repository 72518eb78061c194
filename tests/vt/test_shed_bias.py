"""MIP-bias load shedding: page coarsening and the matching cost model."""

import numpy as np
import pytest

from repro.raster.feedback import page_requests
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace, pack_tile_refs, unpack_tile_refs
from repro.vt.megatexture import MegaTexture
from repro.vt.shed import MIP_FALLOFF, bias_cost_multiplier, shed_page_requests


def make_mega(page_texels=16):
    space = AddressSpace(
        [Texture("a", 64, 64), Texture("b", 128, 128)]
    )
    return MegaTexture(space, page_texels=page_texels)


def fine_pages(mega):
    """The visible pages of :func:`fine_refs`."""
    return page_requests(fine_refs(), mega.page_texels)


def fine_refs():
    # Mip-0 tiles spanning four distinct pages of texture 1 (a 16-texel
    # page holds 4x4 tiles, so tile coords 0 and 4 land on neighbouring
    # pages that share one mip-1 ancestor) plus one page of texture 0.
    tiles = [(1, 0, y, x) for y in (0, 4) for x in (0, 4)]
    tiles.append((0, 0, 1, 1))
    return np.asarray(
        [int(pack_tile_refs(t, m, y, x, check=False)) for t, m, y, x in tiles],
        dtype=np.int64,
    )


class TestCostMultiplier:
    def test_bias_zero_is_identity(self):
        assert bias_cost_multiplier(0) == 1.0

    def test_each_level_quarters_the_work(self):
        assert MIP_FALLOFF == 4.0
        assert bias_cost_multiplier(1) == pytest.approx(0.25)
        assert bias_cost_multiplier(2) == pytest.approx(0.0625)
        assert bias_cost_multiplier(3) == pytest.approx(4.0**-3)

    def test_custom_falloff(self):
        assert bias_cost_multiplier(2, falloff=2.0) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            bias_cost_multiplier(-1)
        with pytest.raises(ValueError):
            bias_cost_multiplier(1, falloff=0.5)


class TestShedPageRequests:
    def test_bias_zero_matches_page_requests(self):
        mega = make_mega()
        pages = fine_pages(mega)
        assert np.array_equal(shed_page_requests(mega, pages, 0), pages)

    def test_bias_collapses_pages_onto_ancestors(self):
        mega = make_mega()
        pages = fine_pages(mega)
        base = shed_page_requests(mega, pages, 0)
        shed = shed_page_requests(mega, pages, 1)
        # Coarsening merges sibling pages: strictly fewer requests, and
        # every surviving page is one MIP level up (or clamped).
        assert len(shed) < len(base)
        for page in shed:
            f = unpack_tile_refs(np.int64(int(page)))
            assert int(f.mip) >= 1 or mega.coarsest_mip(int(f.tid)) == 0

    def test_deep_bias_clamps_to_coarsest_level(self):
        mega = make_mega()
        pages = fine_pages(mega)
        shed = shed_page_requests(mega, pages, 99)
        # One page per touched texture: everything collapsed to the tip.
        tids = {int(unpack_tile_refs(np.int64(int(p))).tid) for p in shed}
        assert tids == {0, 1}
        for page in shed:
            f = unpack_tile_refs(np.int64(int(page)))
            assert int(f.mip) == mega.coarsest_mip(int(f.tid))

    def test_first_touch_order_preserved(self):
        mega = make_mega()
        pages = fine_pages(mega)
        shed = list(shed_page_requests(mega, pages, 1))
        # Deterministic: same pages, same bias -> identical order.
        assert shed == list(shed_page_requests(mega, pages, 1))
        # No duplicates survive the re-unique.
        assert len(shed) == len(set(shed))

    def test_empty_refs(self):
        mega = make_mega()
        empty = np.asarray([], dtype=np.int64)
        assert len(shed_page_requests(mega, empty, 2)) == 0

    def test_validation(self):
        mega = make_mega()
        with pytest.raises(ValueError):
            shed_page_requests(mega, fine_pages(mega), -1)
