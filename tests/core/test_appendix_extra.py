"""Additional Appendix-transcription edge cases."""

import pytest

from tests.oracle.appendix import AppendixL2Cache
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace


@pytest.fixture
def space():
    return AddressSpace([Texture("a", 64, 64)])


class TestEdgeCases:
    def test_rejects_zero_blocks(self, space):
        with pytest.raises(ValueError):
            AppendixL2Cache(space, n_blocks=0)

    def test_deallocate_requires_binding(self, space):
        cache = AppendixL2Cache(space, n_blocks=2)
        with pytest.raises(RuntimeError):
            cache.deallocate_current_texture()

    def test_clock_second_chance(self, space):
        cache = AppendixL2Cache(space, n_blocks=2)
        cache.bind(0)
        cache.access(0, 0)  # block 0, active
        cache.access(1, 0)  # block 1, active
        # Re-touch block 0 so it is MRU-ish (active already set).
        cache.access(0, 0)
        # A third virtual block must sweep: clears both active bits, wraps,
        # and takes block 0 (first inactive after the sweep).
        out = cache.access(2, 0)
        assert out.kind == "l2_full_miss"
        # Virtual block 0 lost its physical block.
        assert cache.t_table[0].l2_block == 0

    def test_partial_hit_fills_sector_only_once(self, space):
        cache = AppendixL2Cache(space, n_blocks=2)
        cache.bind(0)
        assert cache.access(0, 0).kind == "l2_full_miss"
        assert cache.access(0, 1).kind == "l2_partial_hit"
        assert cache.access(0, 1).kind == "l2_full_hit"

    def test_block_addresses_disjoint(self, space):
        cache = AppendixL2Cache(space, n_blocks=4)
        cache.bind(0)
        a = cache.access(0, 0).address
        b = cache.access(1, 0).address
        assert abs(a - b) >= cache.l2_block_size
