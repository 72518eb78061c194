"""Differential tests: batched L2/TLB kernels vs the oracle's loops.

The batched engines must be *bit-identical* to the per-access reference
loops of the test oracle (:mod:`tests.oracle`) — per-frame full/partial/miss/eviction counts, hit counts, carried
replacement-policy state, and end-of-run residency state — across random
streams, every replacement policy, and chunk boundaries (including the
truncate-and-reprocess path taken when an evicted entry recurs within a
chunk).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig, L2TextureCache, SetAssociativeL2Cache
from repro.core.policies import ClockPolicy, LRUPolicy
from repro.core.tlb import TextureTableTLB
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace

from tests.core.test_hierarchy_properties import random_trace
from tests.oracle import (
    ReferenceL2,
    ReferenceSetAssociativeL2,
    ReferenceTLB,
    reference_hierarchy,
)


class FakeSpace:
    """Address-space stand-in exposing only the page-table size."""

    def __init__(self, n_entries):
        self.n_entries = n_entries

    def total_l2_blocks(self, l2_tile_texels):
        return self.n_entries


def random_stream(rng, n_entries, sub_blocks, length):
    """A zipf-ish (gid, sub) stream: hot entries plus a uniform tail."""
    hot = rng.integers(0, max(n_entries // 4, 1), length)
    cold = rng.integers(0, n_entries, length)
    gids = np.where(rng.random(length) < 0.7, hot, cold)
    subs = rng.integers(0, sub_blocks, length)
    return gids, subs


def make_pair(policy, n_blocks, n_entries, chunk_size, tile=16):
    cfg = L2CacheConfig(
        size_bytes=n_blocks * tile * tile * 4, l2_tile_texels=tile, policy=policy
    )
    space = FakeSpace(n_entries)
    ref = ReferenceL2(cfg, space)
    bat = L2TextureCache(cfg, space, chunk_size=chunk_size)
    return ref, bat


def assert_l2_state_equal(ref, bat):
    np.testing.assert_array_equal(ref._t_block, bat._t_block)
    np.testing.assert_array_equal(ref._t_sectors, bat._t_sectors)
    np.testing.assert_array_equal(ref._brl_t_index, bat._brl_t_index)
    assert ref._free == bat._free
    assert ref._next_unused == bat._next_unused
    if isinstance(ref.policy, ClockPolicy):
        np.testing.assert_array_equal(ref.policy.active, bat.policy.active)
        assert ref.policy.hand == bat.policy.hand
        assert ref.policy.search_lengths == bat.policy.search_lengths
    if isinstance(ref.policy, LRUPolicy):
        np.testing.assert_array_equal(ref.policy._stamp, bat.policy._stamp)
        assert ref.policy._clock == bat.policy._clock


class TestL2Differential:
    @given(
        seed=st.integers(0, 10_000),
        policy=st.sampled_from(["clock", "lru", "fifo", "random"]),
        n_blocks=st.integers(1, 24),
        n_entries=st.integers(4, 80),
        chunk_size=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_counts_and_state(
        self, seed, policy, n_blocks, n_entries, chunk_size
    ):
        rng = np.random.default_rng(seed)
        ref, bat = make_pair(policy, n_blocks, n_entries, chunk_size)
        for _ in range(int(rng.integers(1, 4))):
            gids, subs = random_stream(
                rng, n_entries, ref.config.sub_blocks_per_block, int(rng.integers(0, 250))
            )
            assert ref.access_blocks(gids, subs) == bat.access_blocks(gids, subs)
        assert_l2_state_equal(ref, bat)

    def test_chunk_boundary_independence(self):
        # The same stream must give the same answer for every chunking,
        # including chunk_size=1 (pure allocation loop).
        rng = np.random.default_rng(7)
        gids, subs = random_stream(rng, 40, 16, 500)
        baseline = None
        for chunk_size in (1, 3, 17, 500, 1 << 15):
            ref, bat = make_pair("clock", 8, 40, chunk_size)
            got = bat.access_blocks(gids, subs)
            want = ref.access_blocks(gids, subs)
            assert got == want
            if baseline is None:
                baseline = got
            assert got == baseline

    def test_eviction_reaccess_truncation(self):
        # A tiny cache under a cyclic stream forces an evicted gid to recur
        # inside the same chunk — the truncate-and-reprocess path.
        ref, bat = make_pair("clock", 2, 8, chunk_size=64)
        gids = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2] * 5)
        subs = np.zeros(len(gids), dtype=np.int64)
        assert ref.access_blocks(gids, subs) == bat.access_blocks(gids, subs)
        assert_l2_state_equal(ref, bat)

    def test_deallocate_matches_reference(self):
        space = AddressSpace([Texture("a", 64, 64), Texture("b", 128, 128)])
        cfg = L2CacheConfig(size_bytes=16 * 1024, l2_tile_texels=16)
        ref = ReferenceL2(cfg, space)
        bat = L2TextureCache(cfg, space)
        rng = np.random.default_rng(3)
        n_entries = space.total_l2_blocks(16)
        gids = rng.integers(0, n_entries, 300)
        subs = rng.integers(0, cfg.sub_blocks_per_block, 300)
        ref.access_blocks(gids, subs)
        bat.access_blocks(gids, subs)
        assert ref.deallocate_texture(0) == bat.deallocate_texture(0)
        assert ref.deallocate_texture(1) == bat.deallocate_texture(1)
        assert_l2_state_equal(ref, bat)


class TestSetAssociativeDifferential:
    @given(
        seed=st.integers(0, 10_000),
        ways=st.sampled_from([1, 2, 4]),
        sets_factor=st.integers(1, 8),
        n_entries=st.integers(4, 80),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_counts_and_state(self, seed, ways, sets_factor, n_entries):
        rng = np.random.default_rng(seed)
        n_blocks = ways * sets_factor
        cfg = L2CacheConfig(size_bytes=n_blocks * 16 * 16 * 4, l2_tile_texels=16)
        space = FakeSpace(n_entries)
        ref = ReferenceSetAssociativeL2(cfg, space, ways=ways)
        bat = SetAssociativeL2Cache(cfg, space, ways=ways)
        for _ in range(int(rng.integers(1, 4))):
            gids, subs = random_stream(
                rng, n_entries, cfg.sub_blocks_per_block, int(rng.integers(0, 250))
            )
            assert ref.access_blocks(gids, subs) == bat.access_blocks(gids, subs)
        assert ref._sets == bat._sets
        assert ref._sectors == bat._sectors


class TestTLBDifferential:
    @given(
        seed=st.integers(0, 10_000),
        cap=st.integers(1, 16),
        policy=st.sampled_from(["round_robin", "lru"]),
        universe=st.integers(2, 60),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_hits_and_state(self, seed, cap, policy, universe):
        rng = np.random.default_rng(seed)
        ref = ReferenceTLB(cap, policy)
        bat = TextureTableTLB(cap, policy)
        for _ in range(int(rng.integers(1, 5))):
            gids = rng.integers(0, universe, int(rng.integers(0, 300)))
            assert ref.access_frame(gids) == bat.access_frame(gids)
        assert ref._entries == bat._entries
        assert ref._hand == bat._hand


class TestHierarchyEndToEnd:
    def test_full_hierarchy_matches_reference_on_trace(self):
        # End-to-end over a multi-frame trace: every per-frame stat equal.
        space = AddressSpace([Texture("a", 64, 64), Texture("b", 128, 128)])
        trace = random_trace(space, seed=11, n_frames=4, refs_per_frame=400)
        config = HierarchyConfig(
            l1=L1CacheConfig(size_bytes=2048),
            l2=L2CacheConfig(size_bytes=16 * 1024, l2_tile_texels=16),
            tlb_entries=4,
        )
        ref = reference_hierarchy(config, space).run_trace(trace)
        bat = MultiLevelTextureCache(config, space).run_trace(trace)
        for rf, bf in zip(ref.frames, bat.frames):
            assert rf == bf


def test_sector_bits_overflow_rejected():
    # 64x64 tiles would need 256 sector bits; the uint64 bit-vector cannot
    # represent them and `1 << sub` would silently wrap.
    with pytest.raises(ValueError, match="sector bit"):
        L2CacheConfig(size_bytes=8 << 20, l2_tile_texels=64)


def test_32x32_tiles_still_accepted():
    cfg = L2CacheConfig(size_bytes=8 << 20, l2_tile_texels=32)
    assert cfg.sub_blocks_per_block == 64
