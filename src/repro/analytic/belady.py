"""Offline-optimal (Belady / MIN) replacement for the L2 texture cache.

The paper's §6 asks how close clock gets to better algorithms; the honest
yardstick is the offline optimum. Two passes: a vectorized backward scan
yields every access's *next-use* index, then the forward pass evicts the
resident block whose next use lies farthest in the future (never-used-again
blocks first). Among demand policies this minimizes full (block) misses
(Belady 1966; Mattson et al. 1970), so every replacement ablation can show
its distance from optimal.

Sector bits are tracked exactly like
:class:`~repro.core.l2_cache.L2TextureCache`, making the full/partial hit
split and AGP accounting comparable; the block-residency hit rate
``1 - full_misses / accesses`` is the quantity OPT provably maximizes. The
L1 miss stream feeding the L2 does not depend on the L2 policy, so the
OPT >= online guarantee holds access-for-access against the transaction
simulator.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.analytic.mrc import l1_miss_stream
from repro.core.l2_cache import L2CacheConfig, L2FrameResult
from repro.trace.trace import Trace

__all__ = ["next_use_indices", "belady_hits", "belady_l2", "opt_l2_result"]


def next_use_indices(stream: np.ndarray) -> np.ndarray:
    """Index of each element's next occurrence (``len(stream)`` if none)."""
    stream = np.asarray(stream)
    n = len(stream)
    nxt = np.full(n, n, dtype=np.int64)
    if n < 2:
        return nxt
    order = np.argsort(stream, kind="stable")
    s = stream[order]
    same = s[1:] == s[:-1]
    nxt[order[:-1][same]] = order[1:][same]
    return nxt


def belady_hits(stream: np.ndarray, capacity: int) -> int:
    """Hits of an offline-optimal fully-associative cache of ``capacity``."""
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    stream = np.asarray(stream)
    nxt = next_use_indices(stream)
    resident: set[int] = set()
    cur_next: dict[int, int] = {}
    heap: list[tuple[int, int]] = []  # (-next_use, block): farthest on top
    hits = 0
    for i, b in enumerate(stream.tolist()):
        if b in resident:
            hits += 1
        else:
            if len(resident) >= capacity:
                while True:
                    neg_nu, victim = heapq.heappop(heap)
                    if victim in resident and cur_next.get(victim) == -neg_nu:
                        break
                resident.discard(victim)
                del cur_next[victim]
            resident.add(b)
        cur_next[b] = int(nxt[i])
        heapq.heappush(heap, (-int(nxt[i]), b))
    return hits


def belady_l2(gids: np.ndarray, subs: np.ndarray, n_blocks: int) -> L2FrameResult:
    """Run a pre-translated L2 access stream under OPT replacement.

    Args:
        gids: global L2 block ids (the L1 miss stream, translated).
        subs: 4x4 sub-block index per access (sector bit).
        n_blocks: physical blocks of L2 cache memory.

    Returns the same aggregate accounting as
    :meth:`L2TextureCache.access_blocks`, over the whole stream.
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    gids = np.asarray(gids, dtype=np.int64)
    subs = np.asarray(subs, dtype=np.int64)
    if gids.shape != subs.shape:
        raise ValueError("gids and subs must have the same shape")
    nxt = next_use_indices(gids)
    resident: dict[int, int] = {}  # gid -> sector bit-vector
    cur_next: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    full_hits = partial = full_miss = evictions = 0
    for i, (g, s) in enumerate(zip(gids.tolist(), subs.tolist())):
        bit = 1 << s
        sectors = resident.get(g)
        if sectors is None:
            full_miss += 1
            if len(resident) >= n_blocks:
                while True:
                    neg_nu, victim = heapq.heappop(heap)
                    if victim in resident and cur_next.get(victim) == -neg_nu:
                        break
                del resident[victim]
                del cur_next[victim]
                evictions += 1
            resident[g] = bit
        elif sectors & bit:
            full_hits += 1
        else:
            partial += 1
            resident[g] = sectors | bit
        cur_next[g] = int(nxt[i])
        heapq.heappush(heap, (-int(nxt[i]), g))
    return L2FrameResult(
        accesses=len(gids),
        full_hits=full_hits,
        partial_hits=partial,
        full_misses=full_miss,
        evictions=evictions,
    )


def opt_l2_result(
    trace: Trace,
    l1_bytes: int,
    l2_config: L2CacheConfig,
    l1_ways: int = 2,
) -> L2FrameResult:
    """Whole-animation OPT bound for a trace behind a given L1.

    The L1 miss stream (:func:`~repro.analytic.mrc.l1_miss_stream`, which
    does not depend on the L2 policy) is translated once and replayed
    under Belady replacement at the L2's block count.
    """
    miss_refs = l1_miss_stream(trace, l1_bytes, l1_ways)
    gids, subs = trace.address_space.l2_addresses(
        miss_refs, l2_config.l2_tile_texels
    )
    return belady_l2(gids, subs, l2_config.n_blocks)
