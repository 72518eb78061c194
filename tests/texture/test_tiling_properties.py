"""Property tests for the address-translation machinery.

These pin down the invariants the cache simulators rely on: virtual
addresses are unique per tile, page-table extents partition the id space,
and the vectorized translation agrees with the per-texture scalar layout.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.texture.texture import Texture
from repro.texture.tiling import (
    AddressSpace,
    L1_TILE_TEXELS,
    TextureLayout,
    coarsen_refs,
    pack_tile_refs,
    set_index_dtype,
)

texture_sets = st.lists(
    st.tuples(st.sampled_from([16, 32, 64, 128]), st.sampled_from([16, 32, 64, 128])),
    min_size=1,
    max_size=5,
)
l2_sizes = st.sampled_from([8, 16, 32])


def build_space(dims):
    return AddressSpace([Texture(f"t{i}", w, h) for i, (w, h) in enumerate(dims)])


def all_tile_refs(space):
    """Every level-0..n 4x4-tile reference of every texture, as one array."""
    chunks = []
    for tid, tex in enumerate(space.textures):
        for m in range(tex.level_count):
            w, h = tex.level_dims(m)
            tw = -(-w // L1_TILE_TEXELS)
            th = -(-h // L1_TILE_TEXELS)
            ys, xs = np.mgrid[0:th, 0:tw]
            chunks.append(
                pack_tile_refs(tid, m, ys.ravel(), xs.ravel(), check=False)
            )
    return np.concatenate(chunks)


class TestGlobalIds:
    @given(texture_sets, l2_sizes)
    @settings(max_examples=30, deadline=None)
    def test_property_virtual_addresses_unique_per_l2_block(self, dims, l2):
        space = build_space(dims)
        refs = all_tile_refs(space)
        gids = space.global_l2_ids(refs, l2)
        _, _, subs = space.translate_l2(refs, l2)
        # (gid, sub) uniquely identifies each 4x4 tile.
        combined = gids * 1000 + subs
        assert len(np.unique(combined)) == len(refs)

    @given(texture_sets, l2_sizes)
    @settings(max_examples=30, deadline=None)
    def test_property_gids_cover_exactly_the_page_table(self, dims, l2):
        space = build_space(dims)
        refs = all_tile_refs(space)
        gids = np.unique(space.global_l2_ids(refs, l2))
        total = space.total_l2_blocks(l2)
        assert gids.min() == 0
        assert gids.max() == total - 1
        assert len(gids) == total  # every entry reachable, none wasted

    @given(texture_sets, l2_sizes)
    @settings(max_examples=30, deadline=None)
    def test_property_extents_partition_id_space(self, dims, l2):
        space = build_space(dims)
        edges = []
        for tid in range(space.texture_count):
            tstart, tlen = space.l2_extent(tid, l2)
            assert tlen == TextureLayout.for_texture(space.textures[tid], l2).total_blocks
            edges.append((tstart, tstart + tlen))
        edges.sort()
        assert edges[0][0] == 0
        for (a0, a1), (b0, _) in zip(edges, edges[1:]):
            assert a1 == b0  # contiguous, no gaps or overlaps

    @given(texture_sets, l2_sizes)
    @settings(max_examples=30, deadline=None)
    def test_property_subs_within_block_bounds(self, dims, l2):
        space = build_space(dims)
        refs = all_tile_refs(space)
        _, _, subs = space.translate_l2(refs, l2)
        per_block = (l2 // L1_TILE_TEXELS) ** 2
        assert subs.min() >= 0
        assert subs.max() < per_block


class TestCoarsenConsistency:
    @given(texture_sets, l2_sizes)
    @settings(max_examples=20, deadline=None)
    def test_property_same_l2_block_iff_same_coarsened_ref(self, dims, l2):
        space = build_space(dims)
        refs = all_tile_refs(space)
        gids = space.global_l2_ids(refs, l2)
        coarse = coarsen_refs(refs, l2 // L1_TILE_TEXELS)
        # Two tiles share an L2 block exactly when they share a coarse ref.
        order = np.argsort(gids, kind="stable")
        sorted_coarse = coarse[order]
        sorted_gids = gids[order]
        same_gid = sorted_gids[1:] == sorted_gids[:-1]
        same_coarse = sorted_coarse[1:] == sorted_coarse[:-1]
        assert np.array_equal(same_gid, same_coarse)


class TestSetIndexProperties:
    @given(texture_sets, st.sampled_from([8, 16, 64, 256]))
    @settings(max_examples=20, deadline=None)
    def test_property_sets_in_range_and_spread(self, dims, n_sets):
        space = build_space(dims)
        refs = all_tile_refs(space)
        sets = space.l1_set_indices(refs, n_sets)
        assert sets.min() >= 0
        assert sets.max() < n_sets
        if len(refs) >= 4 * n_sets:
            # A decent index function uses most sets on a dense tile sweep.
            assert len(np.unique(sets)) > n_sets // 2

    @given(
        texture_sets,
        st.lists(
            st.tuples(st.integers(0, (1 << 22) - 1), st.integers(0, (1 << 22) - 1)),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_equals_masked_tile_codes(self, dims, coords):
        """The two-gather fast path is the masked Morton tile code.

        Every (tid, mip) of the space, coordinates across the full 22-bit
        range, and every power-of-two set count up to 2^17 (past 2^16 the
        unchanged slow path answers).
        """
        space = build_space(dims)
        keys = [
            (tid, m)
            for tid, tex in enumerate(space.textures)
            for m in range(tex.level_count)
        ]
        xy = [*coords, (0, 0), ((1 << 22) - 1, (1 << 22) - 1)]
        tid, mip, tx, ty = np.array(
            [(t, m, x, y) for t, m in keys for x, y in xy], dtype=np.int64
        ).T
        refs = pack_tile_refs(tid, mip, ty, tx)
        codes = space.l1_tile_codes(refs)
        for k in range(18):
            n_sets = 1 << k
            sets = space.l1_set_indices(refs, n_sets)
            assert sets.dtype == set_index_dtype(n_sets)
            assert np.array_equal(sets, codes & (n_sets - 1))
