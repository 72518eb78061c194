"""The on-chip L1 texture cache (paper §2.3).

Fixed by the paper's methodology: 4x4-texel tiles of 32-bit texels (64-byte
lines, line size == tile size), 2-way set associativity, sizes swept from
2 KB to 32 KB (Fig 9 / Table 2). Tags are the virtual texture address
``<tid, L2, L1>`` — equivalently, the unique packed 4x4-tile reference — and
the set index mixes both tile-coordinate axes (Hakura's "6D blocked
representation", fixed across L2 configurations per §3.3; computed by
:meth:`repro.texture.tiling.AddressSpace.l1_set_indices`).

Simulation is exactly per-set LRU, but vectorized. After a stable sort by
set, a *run* is a maximal stretch of one tag within a set (a set's first
access continues the carried MRU's run if it repeats that tag). A 1-way
access hits iff it continues a run; a 2-way access also hits when its tag
heads the run two runs back in its set, the carried LRU/MRU standing in
for a set's first/second run. A touched set's new MRU/LRU are the heads of
its last two runs. :func:`run_lru_misses` needs no forward-fill.

:class:`L1CacheSim` is the one engine for this L1: the hierarchy, the
analytic models (:mod:`repro.analytic.mrc`) and the ablations all feed
it block by block through :func:`repro.core.hierarchy.l1_blocks`, and
only it calls the two kernels. (The two-tile-line ablation's
:class:`~repro.core.l1_prefetch.L1PairFetchSim` models another line
size.)

General associativities (3 ways and up) use the recency-level kernel the
TLB introduced (:meth:`repro.core.tlb.TextureTableTLB._access_lru_batched`),
generalized per set: recency level k of a set is redefined at access *i*
exactly when access *i-1* resolved at depth >= k (its tag was not within
the top k levels), in which case level k inherits level k-1's previous
content — the demoted entry. Each level is then one grouped forward-fill
(``np.maximum.accumulate`` over definition points), ``ways`` numpy passes
per frame instead of a Python loop per access. Past
:data:`MAX_WAYS` the per-level pass count would exceed a per-access
loop's cost, so wider caches are rejected. The explicit per-access loop
both kernels are proven against lives in the test-only oracle
(``tests/oracle/``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.texture.tiling import L1_BLOCK_BYTES, set_index_dtype

__all__ = ["L1CacheConfig", "L1FrameResult", "L1CacheSim", "MAX_WAYS"]

#: Widest associativity the recency-level kernel handles; each way is one
#: grouped forward-fill pass per frame.
MAX_WAYS = 64


@dataclass(frozen=True)
class L1CacheConfig:
    """L1 cache geometry.

    Attributes:
        size_bytes: total cache capacity (e.g. 2048 or 16384; Fig 9 sweeps
            2 KB - 32 KB).
        ways: associativity (the paper fixes 2; 1 gives direct-mapped;
            at most :data:`MAX_WAYS`).
        line_bytes: cache line size; the paper fixes line == tile == 64 B.
    """

    size_bytes: int = 16 * 1024
    ways: int = 2
    line_bytes: int = L1_BLOCK_BYTES

    def __post_init__(self) -> None:
        if self.ways < 1:
            raise ValueError(f"ways must be >= 1, got {self.ways}")
        if self.ways > MAX_WAYS:
            raise ConfigError(
                "ways", str(self.ways), f"the L1 supports at most {MAX_WAYS} ways"
            )
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError(
                f"cache size {self.size_bytes} is not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )
        n_sets = self.n_sets
        if n_sets & (n_sets - 1):
            raise ValueError(f"set count must be a power of two, got {n_sets}")

    @property
    def n_sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def n_lines(self) -> int:
        """Total cache lines (sets * ways)."""
        return self.size_bytes // self.line_bytes


@dataclass
class L1FrameResult:
    """Per-frame L1 simulation outcome.

    Attributes:
        texel_reads: total texel reads (collapsed weights restored).
        accesses: collapsed tile references presented to the cache.
        misses: tile references that missed (each triggers one 64-byte tile
            download in the pull architecture).
        miss_refs: packed references of the misses, in access order — the
            stream the L2 cache and page-table TLB consume.
    """

    texel_reads: int
    accesses: int
    misses: int
    miss_refs: np.ndarray

    @property
    def texel_hit_rate(self) -> float:
        """Fraction of texel reads served from L1 (collapsed runs all hit)."""
        if self.texel_reads == 0:
            return 1.0
        return 1.0 - self.misses / self.texel_reads

    @property
    def miss_bytes(self) -> int:
        """Bytes downloaded into L1 this frame (one line per miss)."""
        return self.misses * L1_BLOCK_BYTES


def run_lru_misses(
    tags: np.ndarray,
    sets: np.ndarray,
    ways: int,
    mru: np.ndarray,
    lru: np.ndarray,
) -> np.ndarray:
    """Per-slot miss mask of a 1- or 2-way LRU cache, by the run rule.

    ``tags``/``sets`` are a non-empty stream in :func:`sort_by_set` order.
    ``mru``/``lru`` hold every set's carried tags (``-1`` when invalid)
    and are updated in place; ``lru`` is left alone for ``ways == 1``.
    """
    first = np.append(0, np.flatnonzero(sets[1:] != sets[:-1]) + 1)
    # A slot starts a run when its tag differs from the previous tag in its
    # set; a set's first slot compares against the carried MRU instead.
    miss = np.empty(len(tags), dtype=bool)
    np.not_equal(tags[1:], tags[:-1], out=miss[1:])
    miss[first] = tags[first] != mru[sets[first]]
    starts = np.flatnonzero(miss)
    if len(starts) == 0:
        return miss
    heads = tags[starts]
    run_sets = sets[starts]
    first_run = np.append(True, run_sets[1:] != run_sets[:-1])
    last_run = np.append(first_run[1:], True)
    if ways == 2:
        # Head of the run one back in the same set (the carried MRU for a
        # set's first run): the MRU while this run starts.
        prev = np.roll(heads, 1)
        prev[first_run] = mru[run_sets[first_run]]
        # Two runs back: the previous run's ``prev`` (the carried MRU for
        # a set's second run), or the carried LRU for a set's first run.
        back2 = np.roll(prev, 1)
        back2[first_run] = lru[run_sets[first_run]]
        miss[starts] = heads != back2
        lru[run_sets[last_run]] = prev[last_run]
    mru[run_sets[last_run]] = heads[last_run]
    return miss


def sort_by_set(sets: np.ndarray, n_sets: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable order grouping accesses by set, and the sets in that order.

    Sorts the narrowest key: a stable sort of 8-/16-bit keys is a radix
    sort, several times faster than int64.
    """
    key = sets.astype(set_index_dtype(n_sets), copy=False)
    order = np.argsort(key, kind="stable")
    return order, key[order]


class L1CacheSim:
    """Stateful L1 cache simulator; state persists across frames.

    1- and 2-way caches run :func:`run_lru_misses` over carried MRU/LRU
    tags; wider caches run the recency-level kernel over a carried stack.
    """

    _EMPTY = np.int64(-1)

    def __init__(self, config: L1CacheConfig):
        self.config = config
        n_sets = config.n_sets
        self._stack: np.ndarray | None = None
        if config.ways <= 2:
            self._mru = np.full(n_sets, self._EMPTY, dtype=np.int64)
            self._lru = np.full(n_sets, self._EMPTY, dtype=np.int64)
        else:
            # MRU-first recency stack per set, EMPTY-padded on the right.
            self._stack = np.full((n_sets, config.ways), self._EMPTY, dtype=np.int64)

    def reset(self) -> None:
        """Invalidate the whole cache."""
        if self._stack is None:
            self._mru[:] = self._EMPTY
            self._lru[:] = self._EMPTY
        else:
            self._stack[:] = self._EMPTY

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Capture the carried inter-frame state (checkpointing).

        The returned tree contains only numpy arrays and JSON-able scalars
        /lists, so :mod:`repro.reliability.checkpoint` can persist it.
        """
        if self._stack is None:
            return {
                "engine": "vectorized",
                "mru": self._mru.copy(),
                "lru": self._lru.copy(),
            }
        # Oldest-first per-set lists: the layout of a plain per-access
        # LRU loop, so the stack is checkpointed independently of the
        # kernel that maintains it.
        return {
            "engine": "general",
            "sets": [
                [int(t) for t in reversed(row) if t != self._EMPTY]
                for row in self._stack
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` tree; inverse of the snapshot."""
        layout = "vectorized" if self._stack is None else "general"
        if state.get("engine") != layout:
            raise ValueError(
                f"L1 checkpoint was taken on the {state.get('engine')!r} "
                f"engine but this simulator runs {layout!r}"
            )
        if self._stack is None:
            mru = np.asarray(state["mru"], dtype=np.int64)
            lru = np.asarray(state["lru"], dtype=np.int64)
            if mru.shape != self._mru.shape or lru.shape != self._lru.shape:
                raise ValueError("L1 checkpoint does not match the cache geometry")
            self._mru[:] = mru
            self._lru[:] = lru
            return
        sets = state["sets"]
        if len(sets) != len(self._stack):
            raise ValueError("L1 checkpoint does not match the cache geometry")
        self._stack[:] = self._EMPTY
        for row, content in zip(self._stack, sets):
            if len(content) > self.config.ways:
                raise ValueError("L1 checkpoint does not match the cache geometry")
            for level, tag in enumerate(reversed(content)):
                row[level] = int(tag)

    # ------------------------------------------------------------------
    def access_frame(
        self, refs: np.ndarray, weights: np.ndarray, sets: np.ndarray
    ) -> L1FrameResult:
        """Run one frame's collapsed reference stream through the cache.

        Args:
            refs: collapsed packed tile references, in access order.
            weights: texel reads per entry.
            sets: per-entry set index (from ``AddressSpace.l1_set_indices``).
        """
        refs = np.asarray(refs, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        sets = np.asarray(sets)
        if not (len(refs) == len(weights) == len(sets)):
            raise ValueError("refs, weights, sets must have equal length")
        texel_reads = int(weights.sum())
        if len(refs) == 0:
            return L1FrameResult(0, 0, 0, np.empty(0, dtype=np.int64))

        if self._stack is None:
            order, s = sort_by_set(sets, self.config.n_sets)
            miss = np.empty(len(refs), dtype=bool)
            miss[order] = run_lru_misses(
                refs[order], s, self.config.ways, self._mru, self._lru
            )
        else:
            miss = self._access_stacked(refs, sets)

        miss_positions = np.flatnonzero(miss)
        return L1FrameResult(
            texel_reads=texel_reads,
            accesses=len(refs),
            misses=len(miss_positions),
            miss_refs=refs[miss_positions],
        )

    # ------------------------------------------------------------------
    def _access_stacked(self, refs: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """Exact per-set LRU for any associativity via recency levels.

        Within one set's (stably sorted) access run, recency level k
        before access i is a forward-fill: it is redefined at i exactly
        when access i-1 resolved at depth >= k (its tag was outside the
        top k levels), taking level k-1's content at i-1 — the demoted
        entry. Level 0 is simply the previous access's tag. Group starts
        seed every level from the carried inter-frame stack. A tag hits
        iff it matches any of the ``ways`` levels before its access.
        """
        n = len(refs)
        ways = self.config.ways
        order, s = sort_by_set(sets, self.config.n_sets)
        t = refs[order]

        group_start = np.empty(n, dtype=bool)
        group_start[0] = True
        np.not_equal(s[1:], s[:-1], out=group_start[1:])
        group_end = np.empty(n, dtype=bool)
        group_end[-1] = True
        group_end[:-1] = group_start[1:]

        carried = self._stack[s[group_start]]  # (groups, ways) MRU-first
        idx = np.arange(n)

        # in_top accumulates "t[i] is within the top k+1 levels" as the
        # level loop deepens; after the last level it is the hit mask.
        in_top = np.zeros(n, dtype=bool)
        end_levels = np.empty((int(group_end.sum()), ways), dtype=np.int64)
        prev_w: np.ndarray | None = None
        for k in range(ways):
            if k == 0:
                wk = np.empty(n, dtype=np.int64)
                wk[1:] = t[:-1]
                wk[group_start] = carried[:, 0]
            else:
                define = np.zeros(n, dtype=bool)
                define[1:] = ~in_top[:-1]
                vals = np.empty(n, dtype=np.int64)
                vals[1:][define[1:]] = prev_w[:-1][define[1:]]
                define[group_start] = True
                vals[group_start] = carried[:, k]
                last_def = np.maximum.accumulate(np.where(define, idx, -1))
                wk = vals[last_def]
            in_top |= t == wk  # EMPTY never equals a packed ref
            end_levels[:, k] = wk[group_end]
            prev_w = wk

        # Writeback: each touched set's new stack is its last access on
        # top of the pre-access levels with that tag (and EMPTY padding)
        # squeezed out, truncated to ``ways`` — LRU eviction for free.
        last = t[group_end]
        keep = (end_levels != last[:, None]) & (end_levels != self._EMPTY)
        colorder = np.argsort(~keep, axis=1, kind="stable")
        packed = np.take_along_axis(end_levels, colorder, axis=1)
        counts = keep.sum(axis=1)
        new_stack = np.empty_like(packed)
        new_stack[:, 0] = last
        if ways > 1:
            tail = packed[:, : ways - 1]
            cols = np.arange(1, ways)
            new_stack[:, 1:] = np.where(
                cols[None, :] > counts[:, None], self._EMPTY, tail
            )
        self._stack[s[group_end]] = new_stack

        miss = np.empty(n, dtype=bool)
        miss[order] = ~in_top
        return miss
