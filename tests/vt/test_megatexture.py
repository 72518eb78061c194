"""Megatexture page addressing, residency, and the fallback ladder."""

import numpy as np
import pytest

from repro.raster.feedback import page_requests
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace, pack_tile_refs, unpack_tile_refs
from repro.texture.fallback import fallback_page
from repro.vt.megatexture import MegaTexture
from repro.vt.residency import PageResidency


def make_space():
    return AddressSpace(
        [Texture("a", 64, 64), Texture("b", 128, 128), Texture("c", 96, 32)]
    )


class TestMegaTexture:
    def test_page_grid_covers_every_level(self):
        mega = MegaTexture(make_space(), page_texels=32)
        assert mega.pages_wh(0, 0) == (2, 2)  # 64/32
        assert mega.pages_wh(1, 0) == (4, 4)  # 128/32
        assert mega.pages_wh(1, 1) == (2, 2)
        assert mega.pages_wh(2, 0) == (3, 1)  # 96x32: ceil-div
        # Coarse levels never round to zero pages.
        tid = 0
        for mip in range(mega.coarsest_mip(tid) + 1):
            pw, ph = mega.pages_wh(tid, mip)
            assert pw >= 1 and ph >= 1

    def test_page_bytes(self):
        mega = MegaTexture(make_space(), page_texels=32)
        assert mega.page_bytes == 32 * 32 * 4

    def test_invalid_page_size_rejected(self):
        with pytest.raises(ValueError):
            MegaTexture(make_space(), page_texels=24)
        with pytest.raises(ValueError):
            MegaTexture(make_space(), page_texels=2)

    def test_page_requests_coarsen_tile_refs(self):
        mega = MegaTexture(make_space(), page_texels=16)
        # Tile (mip 0, y 5, x 7) covers texels (20..23, 28..31) -> page (1, 1).
        refs = pack_tile_refs(
            np.array([1, 1]), 0, np.array([5, 4]), np.array([7, 4]), check=False
        )
        pages = unpack_tile_refs(page_requests(refs, mega.page_texels))
        assert [(int(y), int(x)) for y, x in zip(pages.tile_y, pages.tile_x)] == [
            (1, 1)
        ]
        assert int(pages.tid[0]) == 1 and int(pages.mip[0]) == 0

    def test_ancestor_walk_shifts_and_clamps(self):
        mega = MegaTexture(make_space(), page_texels=32)
        page = int(pack_tile_refs(1, 0, 3, 2, check=False))
        up = unpack_tile_refs(np.int64(mega.ancestor(page, 1)))
        assert (int(up.mip), int(up.tile_y), int(up.tile_x)) == (1, 1, 1)
        # Deep ancestors clamp to the 1x1 coarse page grid.
        deep = unpack_tile_refs(np.int64(mega.ancestor(page, mega.coarsest_mip(1))))
        assert (int(deep.tile_y), int(deep.tile_x)) == (0, 0)

    def test_coarsest_pages_one_per_texture(self):
        space = make_space()
        mega = MegaTexture(space, page_texels=32)
        pages = mega.coarsest_pages()
        assert len(pages) == space.texture_count
        for tid, page in enumerate(pages):
            f = unpack_tile_refs(page)
            assert int(f.tid) == tid
            assert int(f.mip) == mega.coarsest_mip(tid)


class TestPageResidency:
    def test_capacity_must_exceed_pinned(self):
        with pytest.raises(ValueError):
            PageResidency(2, [1, 2])

    def test_pinned_pages_never_evicted_or_dropped(self):
        res = PageResidency(3, [100])
        assert 100 in res
        assert not res.drop(100)
        res.insert(1)
        res.insert(2)
        evicted = res.insert(3)  # over capacity: one unpinned page goes
        assert evicted and 100 not in evicted
        assert 100 in res

    def test_lru_eviction_order(self):
        res = PageResidency(3, [99])
        res.insert(1)
        res.insert(2)
        res.touch(1)  # 2 is now least recently used
        assert res.insert(3) == [2]
        assert 1 in res and 3 in res

    def test_snapshot_restore_roundtrip(self):
        res = PageResidency(4, [50])
        res.insert(1)
        res.insert(2)
        res.touch(1)
        snap = res.snapshot_state()
        other = PageResidency(4, [50])
        other.restore_state(snap)
        assert other.unpinned_pages() == res.unpinned_pages()
        # The restored clock continues the same eviction sequence.
        assert other.insert(3) == res.insert(3)


class TestFallback:
    def test_falls_back_to_nearest_resident_ancestor(self):
        space = make_space()
        mega = MegaTexture(space, page_texels=32)
        res = PageResidency(8, mega.coarsest_pages())
        page = int(pack_tile_refs(1, 0, 3, 3, check=False))
        anc, bias = fallback_page(mega, res, page)
        assert bias == mega.coarsest_mip(1)  # only the pinned page resident
        res.insert(mega.ancestor(page, 1))
        anc, bias = fallback_page(mega, res, page)
        assert bias == 1 and anc == mega.ancestor(page, 1)

    def test_no_resident_ancestor_is_loud(self):
        space = make_space()
        mega = MegaTexture(space, page_texels=32)
        page = int(pack_tile_refs(1, 0, 3, 3, check=False))
        with pytest.raises(LookupError):
            fallback_page(mega, frozenset(), page)
