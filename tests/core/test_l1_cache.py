"""Unit and property tests for the L1 cache simulator.

The load-bearing tests here are the differential property tests: the
1-/2-way run kernel and the recency-level kernel must match the explicit
per-access loop of the test oracle (:class:`tests.oracle.ReferenceL1`) on
arbitrary streams, including across frame boundaries and checkpoint cuts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.l1_cache import MAX_WAYS, L1CacheConfig, L1CacheSim
from repro.errors import ConfigError

from tests.oracle import ReferenceL1


def ones(n):
    return np.ones(n, dtype=np.int64)


class TestConfig:
    def test_defaults(self):
        cfg = L1CacheConfig()
        assert cfg.n_sets == 128
        assert cfg.n_lines == 256

    def test_2kb_two_way(self):
        cfg = L1CacheConfig(size_bytes=2048)
        assert cfg.n_sets == 16

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            L1CacheConfig(size_bytes=1000)

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(ValueError):
            L1CacheConfig(size_bytes=3 * 128, ways=1, line_bytes=64)

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            L1CacheConfig(ways=0)


class TestBasicBehaviour:
    def _sim(self, ways=2, sets=4):
        cfg = L1CacheConfig(size_bytes=sets * ways * 64, ways=ways)
        return L1CacheSim(cfg)

    def test_cold_miss_then_hit(self):
        sim = self._sim()
        refs = np.array([10, 10], dtype=np.int64)
        res = sim.access_frame(refs, ones(2), np.zeros(2, dtype=np.int64))
        assert res.misses == 1
        assert res.miss_refs.tolist() == [10]

    def test_two_way_holds_two_tags(self):
        sim = self._sim()
        refs = np.array([1, 2, 1, 2], dtype=np.int64)
        res = sim.access_frame(refs, ones(4), np.zeros(4, dtype=np.int64))
        assert res.misses == 2  # both cold misses, then both hit

    def test_lru_eviction_order(self):
        sim = self._sim()
        # 1, 2, 3 -> 3 evicts 1 (LRU); re-access 1 misses, 3 hits, 2 evicted.
        refs = np.array([1, 2, 3, 1, 3], dtype=np.int64)
        res = sim.access_frame(refs, ones(5), np.zeros(5, dtype=np.int64))
        assert res.misses == 4
        assert res.miss_refs.tolist() == [1, 2, 3, 1]

    def test_hit_promotes_to_mru(self):
        sim = self._sim()
        # 1, 2, then hit 1 (promote), then 3 evicts 2 not 1.
        refs = np.array([1, 2, 1, 3, 1], dtype=np.int64)
        res = sim.access_frame(refs, ones(5), np.zeros(5, dtype=np.int64))
        assert res.miss_refs.tolist() == [1, 2, 3]

    def test_sets_are_independent(self):
        sim = self._sim()
        refs = np.array([1, 1, 1, 1], dtype=np.int64)
        sets = np.array([0, 1, 0, 1], dtype=np.int64)
        res = sim.access_frame(refs, ones(4), sets)
        assert res.misses == 2  # one cold miss per set

    def test_state_persists_across_frames(self):
        sim = self._sim()
        sim.access_frame(np.array([1, 2]), ones(2), np.zeros(2, dtype=np.int64))
        res = sim.access_frame(np.array([1, 2]), ones(2), np.zeros(2, dtype=np.int64))
        assert res.misses == 0

    def test_reset_invalidates(self):
        sim = self._sim()
        sim.access_frame(np.array([1]), ones(1), np.zeros(1, dtype=np.int64))
        sim.reset()
        res = sim.access_frame(np.array([1]), ones(1), np.zeros(1, dtype=np.int64))
        assert res.misses == 1

    def test_direct_mapped(self):
        sim = self._sim(ways=1)
        refs = np.array([1, 2, 1], dtype=np.int64)
        res = sim.access_frame(refs, ones(3), np.zeros(3, dtype=np.int64))
        assert res.misses == 3  # 2 evicts 1 in a direct-mapped set

    def test_empty_frame(self):
        sim = self._sim()
        res = sim.access_frame(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        assert res.misses == 0
        assert res.texel_hit_rate == 1.0

    def test_mismatched_lengths_raise(self):
        sim = self._sim()
        with pytest.raises(ValueError):
            sim.access_frame(np.array([1, 2]), ones(1), np.zeros(2, dtype=np.int64))


class TestWeightAccounting:
    def test_collapsed_weights_count_as_hits(self):
        sim = L1CacheSim(L1CacheConfig(size_bytes=2048))
        refs = np.array([7], dtype=np.int64)
        res = sim.access_frame(refs, np.array([10], dtype=np.int64),
                               np.zeros(1, dtype=np.int64))
        assert res.texel_reads == 10
        assert res.misses == 1
        assert res.texel_hit_rate == pytest.approx(0.9)

    def test_miss_bytes(self):
        sim = L1CacheSim(L1CacheConfig(size_bytes=2048))
        refs = np.array([1, 2, 3], dtype=np.int64)
        res = sim.access_frame(refs, ones(3), np.zeros(3, dtype=np.int64))
        assert res.miss_bytes == 3 * 64


class TestVectorizedMatchesReference:
    """The vectorized scan and the reference loop must agree exactly."""

    @given(
        st.integers(1, 2),  # ways
        st.integers(0, 3),  # log2 sets
        st.lists(st.integers(0, 20), min_size=0, max_size=200),
        st.integers(1, 4),  # frames to split into
    )
    @settings(max_examples=150, deadline=None)
    def test_property_equivalence(self, ways, log_sets, tags, n_frames):
        n_sets = 1 << log_sets
        cfg = L1CacheConfig(size_bytes=n_sets * ways * 64, ways=ways)
        fast = L1CacheSim(cfg)
        ref = ReferenceL1(cfg)
        refs = np.array(tags, dtype=np.int64)
        sets = refs % n_sets
        # Split the stream into frames to also exercise state carry-over.
        bounds = np.linspace(0, len(refs), n_frames + 1).astype(int)
        for a, b in zip(bounds, bounds[1:]):
            r_fast = fast.access_frame(refs[a:b], ones(b - a), sets[a:b])
            r_ref = ref.access_frame(refs[a:b], ones(b - a), sets[a:b])
            assert r_fast.misses == r_ref.misses
            assert r_fast.miss_refs.tolist() == r_ref.miss_refs.tolist()

    def test_adversarial_interleaving(self):
        # Same tag in different sets, plus rapid alternation.
        cfg = L1CacheConfig(size_bytes=2 * 2 * 64, ways=2)
        fast = L1CacheSim(cfg)
        ref = ReferenceL1(cfg)
        refs = np.array([5, 5, 6, 5, 7, 6, 5, 7, 8, 5, 5, 8], dtype=np.int64)
        sets = np.array([0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0], dtype=np.int64)
        a = fast.access_frame(refs, ones(len(refs)), sets)
        b = ref.access_frame(refs, ones(len(refs)), sets)
        assert a.misses == b.misses
        assert a.miss_refs.tolist() == b.miss_refs.tolist()


def as_general_sets(snapshot):
    """A 1-/2-way snapshot in the reference loop's oldest-first list form."""
    return [
        [int(t) for t in (lru, mru) if t != -1]
        for mru, lru in zip(snapshot["mru"], snapshot["lru"])
    ]


class TestRunKernelMatchesReference:
    """The run kernel vs the per-access loop, state included.

    Random chunking (repeated cut points give empty frames), one-set
    caches, narrow set dtypes, and a snapshot/restore onto a fresh
    simulator at a random frame boundary.
    """

    @given(
        st.integers(1, 2),  # ways
        st.integers(0, 5),  # log2 sets; 0 is a single-set cache
        st.lists(st.integers(0, 40), min_size=0, max_size=300),
        st.lists(st.integers(0, 300), min_size=0, max_size=6),  # cut points
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_chunked_with_snapshot_cut(
        self, ways, log_sets, tags, cuts, data
    ):
        n_sets = 1 << log_sets
        cfg = L1CacheConfig(size_bytes=n_sets * ways * 64, ways=ways)
        refs = np.array(tags, dtype=np.int64)
        sets = np.array(
            data.draw(
                st.lists(
                    st.integers(0, n_sets - 1),
                    min_size=len(tags),
                    max_size=len(tags),
                )
            ),
            dtype=np.uint8,
        )
        bounds = [0, *sorted(min(c, len(tags)) for c in cuts), len(tags)]
        cut = data.draw(st.integers(0, len(bounds) - 2))
        fast = L1CacheSim(cfg)
        ref = ReferenceL1(cfg)
        assert fast._stack is None  # the run kernel
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            r_fast = fast.access_frame(refs[a:b], ones(b - a), sets[a:b])
            r_ref = ref.access_frame(refs[a:b], ones(b - a), sets[a:b])
            assert r_fast.misses == r_ref.misses
            assert r_fast.miss_refs.tolist() == r_ref.miss_refs.tolist()
            snap = fast.snapshot_state()
            assert as_general_sets(snap) == ref.snapshot_state()["sets"]
            if ways == 1:
                assert (snap["lru"] == -1).all()
            if i == cut:
                fast = L1CacheSim(cfg)
                fast.restore_state(snap)

    def test_state_update_cases(self):
        # Set 0: no run at all (continues the carried MRU) keeps its state;
        # set 1: one run demotes the old MRU to LRU; set 2: two runs.
        cfg = L1CacheConfig(size_bytes=4 * 2 * 64, ways=2)
        sim = L1CacheSim(cfg)
        sim.restore_state(
            {
                "engine": "vectorized",
                "mru": np.array([10, 11, 12, -1]),
                "lru": np.array([20, 21, 22, -1]),
            }
        )
        refs = np.array([10, 31, 10, 22, 32, 31], dtype=np.int64)
        sets = np.array([0, 1, 0, 2, 2, 1], dtype=np.uint8)
        res = sim.access_frame(refs, ones(6), sets)
        # 22 hits as set 2's carried LRU; 31 re-hits as set 1's MRU.
        assert res.miss_refs.tolist() == [31, 32]
        snap = sim.snapshot_state()
        assert snap["mru"].tolist() == [10, 31, 32, -1]
        assert snap["lru"].tolist() == [20, 11, 22, -1]


class TestGeneralAssociativity:
    def test_four_way_keeps_four(self):
        cfg = L1CacheConfig(size_bytes=4 * 64, ways=4)
        sim = L1CacheSim(cfg)
        refs = np.array([1, 2, 3, 4, 1, 2, 3, 4], dtype=np.int64)
        res = sim.access_frame(refs, ones(8), np.zeros(8, dtype=np.int64))
        assert res.misses == 4

    def test_four_way_lru_evicts_oldest(self):
        cfg = L1CacheConfig(size_bytes=4 * 64, ways=4)
        sim = L1CacheSim(cfg)
        refs = np.array([1, 2, 3, 4, 5, 1], dtype=np.int64)
        res = sim.access_frame(refs, ones(6), np.zeros(6, dtype=np.int64))
        # 5 evicts 1, so the final 1 misses again.
        assert res.misses == 6


class TestStackedMatchesReference:
    """The recency-level kernel (ways >= 3) vs the per-access loop.

    Bit-identity must hold per frame, at every frame-boundary snapshot,
    and across checkpoint/restore between the two engines mid-stream.
    """

    def test_engine_selection(self):
        # The kernel follows the associativity: run kernel up to 2 ways,
        # stacked kernel from 3 to MAX_WAYS; the snapshot layout says which.
        for ways, layout in ((1, "vectorized"), (2, "vectorized"),
                             (3, "general"), (MAX_WAYS, "general")):
            sim = L1CacheSim(L1CacheConfig(size_bytes=4 * ways * 64, ways=ways))
            assert sim.snapshot_state()["engine"] == layout
        # Past the kernel's width cap there is no engine of record.
        with pytest.raises(ConfigError, match="at most 64 ways"):
            L1CacheConfig(size_bytes=128 * 64, ways=128)

    @given(
        st.integers(3, 8),  # ways
        st.integers(0, 3),  # log2 sets
        st.lists(st.integers(0, 30), min_size=0, max_size=200),
        st.integers(1, 4),  # frames to split into
    )
    @settings(max_examples=150, deadline=None)
    def test_property_equivalence(self, ways, log_sets, tags, n_frames):
        n_sets = 1 << log_sets
        cfg = L1CacheConfig(size_bytes=n_sets * ways * 64, ways=ways)
        fast = L1CacheSim(cfg)
        ref = ReferenceL1(cfg)
        assert fast._stack is not None  # the stacked kernel
        refs = np.array(tags, dtype=np.int64)
        sets = refs % n_sets
        bounds = np.linspace(0, len(refs), n_frames + 1).astype(int)
        for a, b in zip(bounds, bounds[1:]):
            r_fast = fast.access_frame(refs[a:b], ones(b - a), sets[a:b])
            r_ref = ref.access_frame(refs[a:b], ones(b - a), sets[a:b])
            assert r_fast.misses == r_ref.misses
            assert r_fast.miss_refs.tolist() == r_ref.miss_refs.tolist()
            # Frame-boundary snapshots agree in the shared "general" format.
            assert fast.snapshot_state() == ref.snapshot_state()

    @given(
        st.integers(3, 6),  # ways
        st.lists(st.integers(0, 25), min_size=2, max_size=120),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_checkpoint_mid_stream_across_engines(self, ways, tags, data):
        """Snapshot one engine mid-stream, resume on the other: identical."""
        n_sets = 4
        cfg = L1CacheConfig(size_bytes=n_sets * ways * 64, ways=ways)
        refs = np.array(tags, dtype=np.int64)
        sets = refs % n_sets
        cut = data.draw(st.integers(1, len(tags) - 1))

        ref = ReferenceL1(cfg)
        ref.access_frame(refs[:cut], ones(cut), sets[:cut])
        expect = ref.access_frame(refs[cut:], ones(len(refs) - cut), sets[cut:])

        resumed = L1CacheSim(cfg)  # stacked kernel
        ref_half = ReferenceL1(cfg)
        ref_half.access_frame(refs[:cut], ones(cut), sets[:cut])
        resumed.restore_state(ref_half.snapshot_state())
        got = resumed.access_frame(refs[cut:], ones(len(refs) - cut), sets[cut:])
        assert got.misses == expect.misses
        assert got.miss_refs.tolist() == expect.miss_refs.tolist()

        # And the reverse direction: stacked snapshot resumes the loop.
        stacked_half = L1CacheSim(cfg)
        stacked_half.access_frame(refs[:cut], ones(cut), sets[:cut])
        loop_resumed = ReferenceL1(cfg)
        loop_resumed.restore_state(stacked_half.snapshot_state())
        got2 = loop_resumed.access_frame(
            refs[cut:], ones(len(refs) - cut), sets[cut:]
        )
        assert got2.miss_refs.tolist() == expect.miss_refs.tolist()

    def test_reset_invalidates_stack(self):
        cfg = L1CacheConfig(size_bytes=4 * 64, ways=4)
        sim = L1CacheSim(cfg)
        sim.access_frame(np.array([1]), ones(1), np.zeros(1, dtype=np.int64))
        sim.reset()
        res = sim.access_frame(np.array([1]), ones(1), np.zeros(1, dtype=np.int64))
        assert res.misses == 1

    def test_restore_rejects_geometry_mismatch(self):
        small = L1CacheSim(L1CacheConfig(size_bytes=2 * 4 * 64, ways=4))
        big = L1CacheSim(L1CacheConfig(size_bytes=8 * 4 * 64, ways=4))
        with pytest.raises(ValueError):
            big.restore_state(small.snapshot_state())

    def test_restore_rejects_vectorized_snapshot(self):
        two_way = L1CacheSim(L1CacheConfig(size_bytes=2048))
        four_way = L1CacheSim(L1CacheConfig(size_bytes=4 * 64, ways=4))
        with pytest.raises(ValueError):
            four_way.restore_state(two_way.snapshot_state())
