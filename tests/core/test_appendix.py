"""Fidelity tests: the Appendix pseudo-code vs the production L2 cache.

The paper's Appendix is the authoritative specification of L2 caching;
these tests transcribe-and-compare: arbitrary access streams must produce
*identical* outcome sequences (full hit / partial hit / full miss) from
:class:`AppendixL2Cache` and :class:`L2TextureCache`. (The production cache
additionally keeps a free list for §5.2 deallocation, so the differential
property covers streams without deallocation; the Appendix deallocation
path is tested separately.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracle.appendix import AppendixL2Cache
from repro.core.l2_cache import L2CacheConfig, L2TextureCache
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace, pack_tile_refs


@pytest.fixture
def space():
    return AddressSpace([Texture("a", 64, 64), Texture("b", 32, 32)])


def run_production(space, accesses, n_blocks):
    """Run (tid, l2, l1) accesses one by one; return outcome kinds."""
    cache = L2TextureCache(
        L2CacheConfig(size_bytes=n_blocks * 1024, l2_tile_texels=16), space
    )
    kinds = []
    for tid, l2, l1 in accesses:
        tstart, _ = space.l2_extent(tid, 16)
        gid = tstart + l2
        res = cache.access_blocks(
            np.array([gid], dtype=np.int64), np.array([l1], dtype=np.int64)
        )
        if res.full_hits:
            kinds.append("l2_full_hit")
        elif res.partial_hits:
            kinds.append("l2_partial_hit")
        else:
            kinds.append("l2_full_miss")
    return kinds


def run_appendix(space, accesses, n_blocks):
    cache = AppendixL2Cache(space, n_blocks=n_blocks, l2_tile_texels=16)
    kinds = []
    for tid, l2, l1 in accesses:
        cache.bind(tid)
        kinds.append(cache.access(l2, l1).kind)
    return kinds


def access_strategy(space):
    """Random valid (tid, L2, L1) accesses over the fixture's textures."""
    def build(tid):
        layout = space.layout(tid, 16)
        return st.tuples(
            st.just(tid),
            st.integers(0, layout.total_blocks - 1),
            st.integers(0, layout.sub_blocks_per_block - 1),
        )
    return st.lists(
        st.one_of(build(0), build(1)), min_size=0, max_size=120
    )


class TestDifferential:
    @given(st.data(), st.sampled_from([1, 2, 4, 16]))
    @settings(max_examples=100, deadline=None)
    def test_property_identical_outcomes(self, data, n_blocks):
        space = AddressSpace([Texture("a", 64, 64), Texture("b", 32, 32)])
        accesses = data.draw(access_strategy(space))
        assert run_appendix(space, accesses, n_blocks) == run_production(
            space, accesses, n_blocks
        )


class TestAppendixDetails:
    def test_addresses_within_cache_memory(self, space):
        cache = AppendixL2Cache(space, n_blocks=4, l2_base_addr=0x1000)
        cache.bind(0)
        out = cache.access(0, 3)
        assert out.kind == "l2_full_miss"
        assert 0x1000 <= out.address < 0x1000 + 4 * cache.l2_block_size
        # L1 sub-block 3 sits 3 * 64 bytes into its block.
        assert (out.address - 0x1000) % cache.l2_block_size == 3 * 64

    def test_stable_address_on_rehit(self, space):
        cache = AppendixL2Cache(space, n_blocks=4)
        cache.bind(0)
        first = cache.access(5, 2)
        again = cache.access(5, 2)
        assert again.kind == "l2_full_hit"
        assert again.address == first.address

    def test_one_based_block_convention(self, space):
        cache = AppendixL2Cache(space, n_blocks=4)
        cache.bind(0)
        cache.access(0, 0)
        t = cache.t_table[0]
        assert t.l2_block == 1  # physical block 0, stored as 1 (0 = none)

    def test_requires_bound_texture(self, space):
        cache = AppendixL2Cache(space, n_blocks=4)
        with pytest.raises(RuntimeError):
            cache.access(0, 0)

    def test_deallocate_current_texture(self, space):
        cache = AppendixL2Cache(space, n_blocks=8)
        cache.bind(0)
        cache.access(0, 0)
        cache.access(1, 0)
        cache.bind(1)
        cache.access(0, 0)
        cache.bind(0)
        assert cache.deallocate_current_texture() == 2
        # Texture 0's entries are cleared; texture 1's survive.
        assert cache.t_table[0].l2_block == 0
        tstart_b, _ = space.l2_extent(1, 16)
        assert cache.t_table[tstart_b].l2_block != 0

    def test_deallocated_blocks_reclaimed_by_clock(self, space):
        cache = AppendixL2Cache(space, n_blocks=2)
        cache.bind(0)
        cache.access(0, 0)
        cache.access(1, 0)
        cache.deallocate_current_texture()
        # Both blocks free again: two fresh allocations, no victim search
        # beyond the cleared entries.
        assert cache.access(2, 0).kind == "l2_full_miss"
        assert cache.access(3, 0).kind == "l2_full_miss"
        assert cache.access(2, 0).kind == "l2_full_hit"
