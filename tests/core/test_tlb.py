"""Unit tests for the texture page table TLB."""

import numpy as np
import pytest

from repro.core.tlb import TextureTableTLB


def arr(*xs):
    return np.array(xs, dtype=np.int64)


class TestValidation:
    def test_needs_entries(self):
        with pytest.raises(ValueError):
            TextureTableTLB(0)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            TextureTableTLB(4, policy="clock")


class TestSingleEntry:
    def test_repeats_hit(self):
        tlb = TextureTableTLB(1)
        res = tlb.access_frame(arr(5, 5, 5, 6, 6))
        assert res.hits == 3
        assert res.misses == 2

    def test_alternation_always_misses(self):
        tlb = TextureTableTLB(1)
        res = tlb.access_frame(arr(1, 2, 1, 2))
        assert res.hits == 0


class TestRoundRobin:
    def test_fills_then_replaces_in_order(self):
        tlb = TextureTableTLB(2)
        tlb.access_frame(arr(1, 2))        # fill
        tlb.access_frame(arr(3))           # replaces slot 0 (holding 1)
        res = tlb.access_frame(arr(2, 3, 1))
        assert res.hits == 2               # 2 and 3 resident; 1 was replaced

    def test_hand_does_not_advance_on_hit(self):
        tlb = TextureTableTLB(2)
        tlb.access_frame(arr(1, 2, 1, 1, 1))  # hits don't move the hand
        tlb.access_frame(arr(3))              # still replaces slot 0
        res = tlb.access_frame(arr(2))
        assert res.hits == 1

    def test_state_persists_across_frames(self):
        tlb = TextureTableTLB(4)
        tlb.access_frame(arr(1, 2, 3))
        res = tlb.access_frame(arr(1, 2, 3))
        assert res.hits == 3

    def test_reset(self):
        tlb = TextureTableTLB(4)
        tlb.access_frame(arr(1))
        tlb.reset()
        assert tlb.access_frame(arr(1)).hits == 0


class TestLRUPolicy:
    def test_lru_keeps_recent(self):
        tlb = TextureTableTLB(2, policy="lru")
        tlb.access_frame(arr(1, 2, 1))  # LRU order: 2 oldest
        tlb.access_frame(arr(3))        # evicts 2
        res = tlb.access_frame(arr(1, 2))
        assert res.hits == 1

    def test_lru_beats_round_robin_on_looping_pattern(self):
        # A pattern with strong recency: LRU should never do worse.
        stream = arr(*([1, 2, 3, 1, 2, 3] * 10))
        rr = TextureTableTLB(3).access_frame(stream)
        lru = TextureTableTLB(3, policy="lru").access_frame(stream)
        assert lru.hits >= rr.hits


class TestResult:
    def test_hit_rate(self):
        tlb = TextureTableTLB(1)
        res = tlb.access_frame(arr(1, 1))
        assert res.hit_rate == pytest.approx(0.5)

    def test_empty_frame(self):
        tlb = TextureTableTLB(1)
        res = tlb.access_frame(np.empty(0, dtype=np.int64))
        assert res.hit_rate == 0.0


class TestRestoreState:
    def test_round_trip(self):
        tlb = TextureTableTLB(2)
        tlb.access_frame(arr(1, 2, 3))
        state = tlb.snapshot_state()
        other = TextureTableTLB(2)
        other.restore_state(state)
        assert other.snapshot_state() == {"entries": [3, 2], "hand": 1}
        assert other.access_frame(arr(2, 3, 1)).hits == 2

    def test_too_many_entries_rejected(self):
        with pytest.raises(ValueError, match="entry count"):
            TextureTableTLB(2).restore_state({"entries": [1, 2, 3], "hand": 0})

    @pytest.mark.parametrize("hand", [4, 5, -1])
    def test_hand_outside_slots_rejected(self, hand):
        # Accepting it would raise a raw IndexError at the next miss.
        tlb = TextureTableTLB(4)
        with pytest.raises(ValueError, match="hand"):
            tlb.restore_state({"entries": [1, 2, 3, 4], "hand": hand})

    def test_duplicate_entries_rejected(self):
        tlb = TextureTableTLB(4)
        with pytest.raises(ValueError, match="duplicate"):
            tlb.restore_state({"entries": [1, 2, 1, 3], "hand": 0})

    def test_hand_on_partial_table_rejected(self):
        # A full 4-entry state restored into a 16-entry TLB: the hand only
        # moves once every slot is taken, so this state is unreachable.
        small = TextureTableTLB(4)
        small.access_frame(arr(1, 2, 3, 4, 5))
        state = small.snapshot_state()
        assert state["hand"] == 1
        with pytest.raises(ValueError, match="hand"):
            TextureTableTLB(16).restore_state(state)

    def test_rejected_state_leaves_tlb_unchanged(self):
        tlb = TextureTableTLB(2)
        tlb.access_frame(arr(1, 2))
        with pytest.raises(ValueError):
            tlb.restore_state({"entries": [7, 7], "hand": 0})
        assert tlb.snapshot_state() == {"entries": [1, 2], "hand": 0}
