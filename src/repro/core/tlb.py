"""The texture page table TLB (paper §5.4.3).

Page tables large enough to describe hundreds of MB of host texture must
live in the same external DRAM as the L2 blocks (Table 4), so every L1 miss
would pay a DRAM access for translation. A small on-chip TLB over
``<tid, L2>`` entries hides that latency. "Replacement for multi-entry
TLB's was round robin" — LRU is also provided for comparison.

Like the cache simulators, the TLB resolves a whole frame in numpy
passes: LRU by materializing each recency-stack level with a grouped
forward-fill (the construction the L1's stacked kernel generalizes per
set; very large TLBs fall back to the Mattson stack-distance engine),
round robin by scanning blocks of accesses against the entry table and
dropping to a scalar loop only inside miss-bearing blocks. Both are
bit-identical to a per-access loop, including the carried entry list and
hand position; that loop lives in the test-only oracle (``tests/oracle/``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TLBFrameResult", "TextureTableTLB"]


@dataclass
class TLBFrameResult:
    """Per-frame TLB outcome over the L1 miss stream."""

    accesses: int
    hits: int

    @property
    def misses(self) -> int:
        """TLB misses this frame."""
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        """Hits / accesses (0.0 for an idle frame)."""
        return self.hits / self.accesses if self.accesses else 0.0


class TextureTableTLB:
    """A small fully-associative TLB over page-table entries.

    Args:
        n_entries: TLB capacity (the paper sweeps 1-16).
        policy: "round_robin" (the paper) or "lru".
    """

    _POLICIES = ("round_robin", "lru")

    def __init__(self, n_entries: int, policy: str = "round_robin"):
        if n_entries < 1:
            raise ValueError(f"TLB needs at least one entry, got {n_entries}")
        if policy not in self._POLICIES:
            raise ValueError(
                f"unknown TLB policy {policy!r}; choose from {self._POLICIES}"
            )
        self.n_entries = n_entries
        self.policy = policy
        self._entries: list[int] = []
        self._hand = 0

    def reset(self) -> None:
        """Invalidate all TLB entries."""
        self._entries.clear()
        self._hand = 0

    def snapshot_state(self) -> dict:
        """Capture the entry list and round-robin hand (checkpointing)."""
        return {"entries": list(self._entries), "hand": int(self._hand)}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` tree; inverse of the snapshot."""
        entries = [int(g) for g in state["entries"]]
        if len(entries) > self.n_entries:
            raise ValueError("TLB checkpoint does not match the entry count")
        self._entries = entries
        self._hand = int(state["hand"])

    def access_frame(self, gids: np.ndarray) -> TLBFrameResult:
        """Translate one frame's worth of page-table indices.

        Args:
            gids: global L2 block ids (page-table indices) of the frame's
                L1 misses, in access order.
        """
        gids = np.asarray(gids, dtype=np.int64)
        if len(gids) == 0:
            return TLBFrameResult(accesses=0, hits=0)
        if self.policy == "lru":
            return self._access_lru_batched(gids)
        return self._access_round_robin_batched(gids)

    def _access_lru_batched(self, gids: np.ndarray) -> TLBFrameResult:
        """Whole-frame LRU by materializing the recency stack level by level.

        Level ``k`` holds the k-th most recently used distinct gid. Level 1
        before access ``i`` is simply the previous access; level ``k`` takes
        the old level ``k-1`` value exactly when the previous access sat at
        stack depth >= k (i.e. missed the top ``k-1`` levels), which is a
        grouped forward-fill, iterated ``cap`` times (the L1's stacked
        kernel does the same per set). A hit is a match on any level. TLBs
        bigger than the paper ever sweeps fall back to the O(n log n)
        stack-distance engine, whose cost does not grow with capacity.
        """
        cap = self.n_entries
        if cap > 32:
            return self._access_lru_stack(gids)
        n = len(gids)
        state = self._entries  # oldest first; MRU at the back
        idx = np.arange(n)
        in_top = np.zeros(n, dtype=bool)  # hit within levels 1..k-1
        prev_w: np.ndarray | None = None
        final_stack: list[int] = []
        for k in range(1, cap + 1):
            carried = state[-k] if k <= len(state) else -1
            wk = np.empty(n, dtype=np.int64)
            if k == 1:
                wk[0] = carried
                wk[1:] = gids[:-1]
            else:
                # w_k is redefined at i when access i-1 was at depth >= k;
                # its new value is w_{k-1} as it stood before that access.
                define = np.empty(n, dtype=bool)
                define[0] = True
                np.logical_not(in_top[:-1], out=define[1:])
                vals = np.empty(n, dtype=np.int64)
                vals[0] = carried
                vals[1:][define[1:]] = prev_w[:-1][define[1:]]
                last_def = np.maximum.accumulate(np.where(define, idx, -1))
                wk = vals[last_def]
            in_top = in_top | (gids == wk)
            prev_w = wk
            final_stack.append(int(wk[-1]))
        hits = int(np.count_nonzero(in_top))

        # End state: push the last access onto the stack as it stood
        # before it, then drop sentinels and overflow.
        last = int(gids[-1])
        stack = [last] + [w for w in final_stack if w != last and w != -1]
        self._entries = list(reversed(stack[:cap]))
        return TLBFrameResult(accesses=n, hits=hits)

    def _access_lru_stack(self, gids: np.ndarray) -> TLBFrameResult:
        """Whole-frame LRU via stack distances (hit iff distance < cap).

        The carried entry list, oldest first, becomes a synthetic prefix so
        the LRU stack right after it equals the TLB; the end state is the
        ``cap`` most recently seen distinct gids in recency order.
        """
        from repro.analytic.stack_distance import stack_distances

        cap = self.n_entries
        n_state = len(self._entries)
        if n_state:
            stream = np.concatenate(
                [np.asarray(self._entries, dtype=np.int64), gids]
            )
        else:
            stream = gids
        d = stack_distances(stream)[n_state:]
        hits = int(np.count_nonzero((d >= 0) & (d < cap)))

        uniq, ridx = np.unique(stream[::-1], return_index=True)
        last_pos = len(stream) - 1 - ridx
        order = np.argsort(last_pos)
        self._entries = uniq[order[-cap:]].tolist()
        return TLBFrameResult(accesses=len(gids), hits=hits)

    def _access_round_robin_batched(self, gids: np.ndarray) -> TLBFrameResult:
        """Whole-frame round robin via block scans with a scalar fallback.

        Round robin only mutates on a miss, so a block of accesses can be
        checked against the (unchanging) entry table in one ``isin`` pass;
        an all-hit block costs a single vector op. A block containing a
        miss is finished with the scalar loop from the first miss onward —
        membership in a handful of entries is a cheap list probe, so the
        scalar tail never costs more than a per-access loop. Block size
        doubles through hit runs and halves after miss-bearing blocks, so
        hit-heavy streams are resolved almost entirely vectorized while
        miss-heavy streams degrade gracefully to per-access loop speed.
        """
        cap = self.n_entries
        entries = self._entries
        hand = self._hand
        hits = 0
        n = len(gids)
        pos = 0
        block = 512
        while pos < n:
            seg = gids[pos : pos + block]
            if entries:
                # Membership against a handful of entries: one broadcast
                # equality beats np.isin's sort-based path by an order of
                # magnitude at these sizes.
                table = np.asarray(entries, dtype=np.int64)
                mask = (seg[:, None] == table).any(axis=1)
                first = int(np.argmin(mask)) if not mask.all() else len(seg)
            else:
                first = 0
            hits += first
            if first < len(seg):
                for gid in seg[first:].tolist():
                    if gid in entries:
                        hits += 1
                    elif len(entries) >= cap:
                        entries[hand] = gid
                        hand = (hand + 1) % cap
                    else:
                        entries.append(gid)
                block = max(64, block // 2)
            else:
                block = min(block * 2, 1 << 16)
            pos += len(seg)
        self._hand = hand
        return TLBFrameResult(accesses=n, hits=hits)
