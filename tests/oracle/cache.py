"""Per-access reference loops for the cache hierarchy.

Each class here is the plain loop a batched kernel in :mod:`repro.core` is
proven bit-identical against. The L2 and TLB oracles subclass the
production classes and override only their access method, so end-of-run
state (page table, sector bits, free list, policy metadata, TLB entries
and hand) lives in the same fields and compares directly. The L1 oracle
is standalone: its state is one oldest-first list per set.
"""

from __future__ import annotations

import numpy as np

from repro.core.l1_cache import L1CacheConfig, L1FrameResult
from repro.core.l2_cache import L2FrameResult, L2TextureCache, SetAssociativeL2Cache
from repro.core.tlb import TextureTableTLB, TLBFrameResult

__all__ = ["ReferenceL1", "ReferenceL2", "ReferenceSetAssociativeL2", "ReferenceTLB"]


class ReferenceL1:
    """N-way LRU L1, one Python step per access.

    Snapshots use the ``"general"`` layout (oldest-first per-set lists)
    that :class:`~repro.core.l1_cache.L1CacheSim` writes for 3 ways and
    up, so state moves between this loop and the stacked kernel.
    """

    def __init__(self, config: L1CacheConfig):
        self.config = config
        self._sets_general: list[list[int]] = [[] for _ in range(config.n_sets)]

    def reset(self) -> None:
        """Invalidate the whole cache."""
        for s in self._sets_general:
            s.clear()

    def snapshot_state(self) -> dict:
        """Per-set contents, oldest first."""
        return {
            "engine": "general",
            "sets": [list(s) for s in self._sets_general],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` tree; inverse of the snapshot."""
        if state.get("engine") != "general":
            raise ValueError(
                f"L1 checkpoint was taken on the {state.get('engine')!r} "
                "engine but this simulator runs 'general'"
            )
        sets = state["sets"]
        if len(sets) != len(self._sets_general):
            raise ValueError("L1 checkpoint does not match the cache geometry")
        self._sets_general = [[int(t) for t in s] for s in sets]

    def access_frame(
        self, refs: np.ndarray, weights: np.ndarray, sets: np.ndarray
    ) -> L1FrameResult:
        """Run one frame's collapsed reference stream through the cache."""
        refs = np.asarray(refs, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        sets = np.asarray(sets)
        if not (len(refs) == len(weights) == len(sets)):
            raise ValueError("refs, weights, sets must have equal length")
        texel_reads = int(weights.sum())
        if len(refs) == 0:
            return L1FrameResult(0, 0, 0, np.empty(0, dtype=np.int64))
        miss = self._access_general(refs, sets)
        miss_positions = np.flatnonzero(miss)
        return L1FrameResult(
            texel_reads=texel_reads,
            accesses=len(refs),
            misses=len(miss_positions),
            miss_refs=refs[miss_positions],
        )

    def _access_general(self, refs: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """Reference N-way LRU implementation (explicit per-access loop)."""
        ways = self.config.ways
        lines = self._sets_general
        miss = np.empty(len(refs), dtype=bool)
        for i, (tag, set_idx) in enumerate(zip(refs.tolist(), sets.tolist())):
            content = lines[set_idx]
            if tag in content:
                content.remove(tag)
                content.append(tag)  # most recent at the back
                miss[i] = False
            else:
                if len(content) >= ways:
                    content.pop(0)
                content.append(tag)
                miss[i] = True
        return miss


class ReferenceL2(L2TextureCache):
    """The page-table L2 with its per-access loop."""

    def access_blocks(self, gids: np.ndarray, subs: np.ndarray) -> L2FrameResult:
        """Per-access loop; the ground truth the batched kernel must match."""
        gids = np.asarray(gids, dtype=np.int64)
        subs = np.asarray(subs, dtype=np.int64)
        full_hits = 0
        partial = 0
        full_miss = 0
        evictions = 0

        t_block = self._t_block
        t_sectors = self._t_sectors
        brl = self._brl_t_index
        policy = self.policy
        n_blocks = self.config.n_blocks
        free = self._free

        for gid, sub in zip(gids.tolist(), subs.tolist()):
            blk = t_block[gid]
            bit = np.uint64(1 << sub)
            if blk >= 0:
                if t_sectors[gid] & bit:
                    full_hits += 1  # step D yes: load from L2 memory
                else:
                    partial += 1  # step F: download sub-block from host
                    t_sectors[gid] |= bit
                policy.touch(blk)
                continue
            # Step E: full miss — allocate a physical block.
            full_miss += 1
            if free:
                blk = free.pop()
            elif self._next_unused < n_blocks:
                blk = self._next_unused
                self._next_unused += 1
            else:
                blk = policy.victim()
                old = brl[blk]
                if old >= 0:
                    t_block[old] = -1
                    t_sectors[old] = 0
                    evictions += 1
            brl[blk] = gid
            t_block[gid] = blk
            t_sectors[gid] = bit
            policy.touch(blk)

        return L2FrameResult(
            accesses=len(gids),
            full_hits=full_hits,
            partial_hits=partial,
            full_misses=full_miss,
            evictions=evictions,
        )


class ReferenceSetAssociativeL2(SetAssociativeL2Cache):
    """The set-associative L2 with its per-access loop."""

    def access_blocks(self, gids: np.ndarray, subs: np.ndarray) -> L2FrameResult:
        """Per-access loop; the ground truth the batched kernel must match."""
        gids = np.asarray(gids, dtype=np.int64)
        subs = np.asarray(subs, dtype=np.int64)
        full_hits = 0
        partial = 0
        full_miss = 0
        evictions = 0
        n_sets = self.n_sets
        sets = self._sets
        sectors = self._sectors

        for gid, sub in zip(gids.tolist(), subs.tolist()):
            content = sets[gid % n_sets]
            bit = 1 << sub
            if gid in content:
                content.remove(gid)
                content.append(gid)
                if sectors[gid] & bit:
                    full_hits += 1
                else:
                    partial += 1
                    sectors[gid] |= bit
            else:
                full_miss += 1
                if len(content) >= self.ways:
                    old = content.pop(0)
                    del sectors[old]
                    evictions += 1
                content.append(gid)
                sectors[gid] = bit

        return L2FrameResult(
            accesses=len(gids),
            full_hits=full_hits,
            partial_hits=partial,
            full_misses=full_miss,
            evictions=evictions,
        )


class ReferenceTLB(TextureTableTLB):
    """The page-table TLB with its per-access loop."""

    def access_frame(self, gids: np.ndarray) -> TLBFrameResult:
        """Per-access loop; the ground truth the batched engine must match."""
        gids = np.asarray(gids, dtype=np.int64)
        hits = 0
        entries = self._entries
        cap = self.n_entries
        if self.policy == "lru":
            for gid in gids.tolist():
                if gid in entries:
                    hits += 1
                    entries.remove(gid)
                    entries.append(gid)
                else:
                    if len(entries) >= cap:
                        entries.pop(0)
                    entries.append(gid)
        else:  # round robin
            hand = self._hand
            for gid in gids.tolist():
                if gid in entries:
                    hits += 1
                else:
                    if len(entries) >= cap:
                        entries[hand] = gid
                        hand = (hand + 1) % cap
                    else:
                        entries.append(gid)
            self._hand = hand
        return TLBFrameResult(accesses=len(gids), hits=hits)
