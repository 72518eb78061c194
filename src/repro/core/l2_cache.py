"""The L2 texture cache (paper §5.1-5.2).

The L2 is organized as virtual memory rather than a hardware-indexed cache:
a **texture page table** (``t_table[]``) maps virtual block addresses
``<tid, L2>`` — here, the global page-table index ``tstart + L2`` — to
physical blocks of **L2 cache memory**; a **Block Replacement List**
(``BRL[]``) drives replacement (clock by default); and **sector mapping**
downloads only the 4x4 L1 sub-block each L1 miss needs, tracked by a
per-entry sector bit-vector, "in order not to exceed the download bandwidth
of the pull architecture".

Accounting distinguishes (per §5.4.2's conditional hit rates):

* **full hit** — block allocated and sub-block present: serviced from local
  L2 memory, no host traffic;
* **partial hit** — block allocated, sub-block absent: one L1-tile download
  from host memory (into L2 and, in parallel, L1);
* **full miss** — no physical block: find a victim, re-map, then download.

The simulator is a batched kernel that classifies whole chunks of the miss
stream with numpy passes, dropping into a tight allocation loop only at
first-touch full misses. It is bit-identical to a per-access loop —
per-frame transaction counts, eviction counts, final residency state, and
replacement-policy state all match — and the differential test suite
asserts it against that loop, kept in the test-only oracle
(``tests/oracle/``).

:class:`SetAssociativeL2Cache` implements the organization §5.1 argues
*against* (restricted placement causes inter-texture collisions); it exists
for the associativity ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policies import ReplacementPolicy, make_policy
from repro.texture.tiling import (
    AddressSpace,
    CACHE_TEXEL_BYTES,
    L1_BLOCK_BYTES,
    L1_TILE_TEXELS,
)

__all__ = ["L2CacheConfig", "L2FrameResult", "L2TextureCache", "SetAssociativeL2Cache"]

#: Sector bits available per page-table entry (``_t_sectors`` is uint64).
MAX_SECTOR_BITS = 64


@dataclass(frozen=True)
class L2CacheConfig:
    """L2 cache geometry and policy.

    Attributes:
        size_bytes: L2 cache memory (the paper studies 2, 4, 8 MB).
        l2_tile_texels: L2 block edge in texels (8, 16, or 32; paper
            default 16).
        policy: replacement policy name ("clock" is the paper's choice).
    """

    size_bytes: int = 2 * 1024 * 1024
    l2_tile_texels: int = 16
    policy: str = "clock"

    def __post_init__(self) -> None:
        if self.l2_tile_texels < L1_TILE_TEXELS or (
            self.l2_tile_texels & (self.l2_tile_texels - 1)
        ):
            raise ValueError(
                f"L2 tile size must be a power of two >= {L1_TILE_TEXELS}, "
                f"got {self.l2_tile_texels}"
            )
        if self.sub_blocks_per_block > MAX_SECTOR_BITS:
            # The per-entry sector bit-vector is a uint64; a larger tile
            # would need more sector bits and ``1 << sub`` would silently
            # wrap, corrupting the sector accounting.
            max_tile = L1_TILE_TEXELS * int(MAX_SECTOR_BITS**0.5)
            raise ValueError(
                f"l2_tile_texels={self.l2_tile_texels} needs "
                f"{self.sub_blocks_per_block} sector bits per entry, but the "
                f"sector bit-vector holds {MAX_SECTOR_BITS}; the maximum "
                f"supported L2 tile is {max_tile} texels"
            )
        if self.size_bytes < self.block_bytes:
            raise ValueError(
                f"L2 size {self.size_bytes} smaller than one block "
                f"({self.block_bytes})"
            )

    @property
    def block_bytes(self) -> int:
        """Bytes per L2 block (tile area x 4-byte texels)."""
        return self.l2_tile_texels * self.l2_tile_texels * CACHE_TEXEL_BYTES

    @property
    def n_blocks(self) -> int:
        """Physical blocks in L2 cache memory."""
        return self.size_bytes // self.block_bytes

    @property
    def sub_blocks_per_block(self) -> int:
        """4x4 L1 sub-blocks per L2 block (sector bits per entry)."""
        edge = self.l2_tile_texels // L1_TILE_TEXELS
        return edge * edge


@dataclass
class L2FrameResult:
    """Per-frame L2 outcome over the L1 miss stream."""

    accesses: int
    full_hits: int
    partial_hits: int
    full_misses: int
    evictions: int

    @property
    def host_downloads(self) -> int:
        """L1-tile downloads from host memory (partial hits + full misses)."""
        return self.partial_hits + self.full_misses

    @property
    def agp_bytes(self) -> int:
        """Host-to-accelerator traffic this frame."""
        return self.host_downloads * L1_BLOCK_BYTES

    @property
    def local_bytes(self) -> int:
        """L2-memory-to-L1 traffic serviced locally (full hits)."""
        return self.full_hits * L1_BLOCK_BYTES

    def hit_rates(self) -> tuple[float, float]:
        """(full, partial) hit rates conditional on an L1 miss (§5.4.2)."""
        if self.accesses == 0:
            return 0.0, 0.0
        return self.full_hits / self.accesses, self.partial_hits / self.accesses


class L2TextureCache:
    """The paper's page-table L2 cache over an address space.

    Args:
        config: cache geometry/policy.
        space: address space of the workload's textures; sizes the page
            table (one entry per L2 block of every texture, the host
            driver's ``tstart``/``tlen`` allocation).
        chunk_size: accesses per batched pass; state is re-snapshotted at
            chunk boundaries, so smaller chunks trade throughput for
            temporary-array footprint without changing results.
    """

    def __init__(
        self,
        config: L2CacheConfig,
        space: AddressSpace,
        chunk_size: int = 1 << 15,
    ):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.config = config
        self.space = space
        self._chunk_size = chunk_size
        n_entries = space.total_l2_blocks(config.l2_tile_texels)
        # t_table[]: physical block per virtual block (-1 = unallocated) and
        # the per-entry sector bit-vector (bit set = L1 sub-block present).
        # Invariant: unallocated entries always have an all-zero bit-vector.
        self._t_block = np.full(n_entries, -1, dtype=np.int64)
        self._t_sectors = np.zeros(n_entries, dtype=np.uint64)
        # BRL[]: owning t_table index per physical block (-1 = free).
        self._brl_t_index = np.full(config.n_blocks, -1, dtype=np.int64)
        self.policy: ReplacementPolicy = make_policy(config.policy, config.n_blocks)
        self._next_unused = 0
        self._free: list[int] = []

    # ------------------------------------------------------------------
    @property
    def page_table_entries(self) -> int:
        """t_table entries (one per L2 block of every texture)."""
        return len(self._t_block)

    @property
    def resident_blocks(self) -> int:
        """Physical blocks currently mapped."""
        return int((self._brl_t_index >= 0).sum())

    def is_resident(self, gid: int, sub: int | None = None) -> bool:
        """Whether a virtual block (optionally a specific sub-block) is in L2."""
        if self._t_block[gid] < 0:
            return False
        if sub is None:
            return True
        return bool(self._t_sectors[gid] & np.uint64(1 << sub))

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Capture page table, BRL, allocator, and policy state."""
        return {
            "t_block": self._t_block.copy(),
            "t_sectors": self._t_sectors.copy(),
            "brl_t_index": self._brl_t_index.copy(),
            "next_unused": int(self._next_unused),
            "free": list(self._free),
            "policy": self.policy.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` tree; inverse of the snapshot."""
        t_block = np.asarray(state["t_block"], dtype=np.int64)
        t_sectors = np.asarray(state["t_sectors"], dtype=np.uint64)
        brl = np.asarray(state["brl_t_index"], dtype=np.int64)
        if (
            t_block.shape != self._t_block.shape
            or t_sectors.shape != self._t_sectors.shape
            or brl.shape != self._brl_t_index.shape
        ):
            raise ValueError("L2 checkpoint does not match the cache geometry")
        self._t_block[:] = t_block
        self._t_sectors[:] = t_sectors
        self._brl_t_index[:] = brl
        self._next_unused = int(state["next_unused"])
        self._free = [int(b) for b in state["free"]]
        self.policy.restore_state(state["policy"])

    # ------------------------------------------------------------------
    def access_frame(self, miss_refs: np.ndarray) -> L2FrameResult:
        """Run one frame's L1 miss stream through the L2 (Fig 7 steps C-F)."""
        gids_arr, subs_arr = self.space.l2_addresses(
            miss_refs, self.config.l2_tile_texels
        )
        return self.access_blocks(gids_arr, subs_arr)

    def access_blocks(self, gids: np.ndarray, subs: np.ndarray) -> L2FrameResult:
        """Lower-level entry point taking pre-translated addresses."""
        gids = np.asarray(gids, dtype=np.int64)
        subs = np.asarray(subs, dtype=np.int64)
        n = len(gids)
        full_hits = partial = full_miss = evictions = 0
        start = 0
        while start < n:
            stop = min(start + self._chunk_size, n)
            done, fh, ph, fm, ev = self._access_chunk(
                gids[start:stop], subs[start:stop]
            )
            full_hits += fh
            partial += ph
            full_miss += fm
            evictions += ev
            start += done
        return L2FrameResult(
            accesses=n,
            full_hits=full_hits,
            partial_hits=partial,
            full_misses=full_miss,
            evictions=evictions,
        )

    def _access_chunk(
        self, g: np.ndarray, s: np.ndarray
    ) -> tuple[int, int, int, int, int]:
        """Run one chunk of the miss stream through the batched kernel.

        Classifies every access optimistically from a snapshot of the page
        table plus within-chunk first-occurrence masks, then commits policy
        touches segment-wise between full misses so every ``victim`` call
        sees exactly the touches that preceded it. The one case the
        snapshot cannot absorb — an evicted entry re-accessed later in the
        same chunk — truncates the chunk at the re-access; the caller
        re-enters with a fresh snapshot. Returns ``(processed, full_hits,
        partial_hits, full_misses, evictions)`` for the processed prefix.
        """
        t_block = self._t_block
        t_sectors = self._t_sectors
        brl = self._brl_t_index
        policy = self.policy
        n = len(g)

        bits = np.uint64(1) << s.astype(np.uint64)
        blk = t_block[g]  # physical block per access; filled as misses allocate
        resident0 = blk >= 0
        bit_set0 = (t_sectors[g] & bits) != 0

        # First occurrence of each gid / of each (gid, sub) pair in the chunk.
        order = np.argsort(g, kind="stable")
        sg = g[order]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(sg[1:], sg[:-1], out=boundary[1:])
        first_gid = np.zeros(n, dtype=bool)
        first_gid[order[boundary]] = True
        group_start = np.flatnonzero(boundary)
        group_end = np.append(group_start[1:], n)
        group_of = np.cumsum(boundary) - 1
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)

        pair_key = (g << np.int64(6)) | s  # sub < 64 by config validation
        pair_order = np.argsort(pair_key, kind="stable")
        spk = pair_key[pair_order]
        pair_boundary = np.empty(n, dtype=bool)
        pair_boundary[0] = True
        np.not_equal(spk[1:], spk[:-1], out=pair_boundary[1:])
        first_pair = np.zeros(n, dtype=bool)
        first_pair[pair_order[pair_boundary]] = True

        # A nonresident entry always has zero sector bits, so the three
        # classes partition exactly as the sequential loop would see them —
        # as long as no mid-chunk eviction invalidates the snapshot for a
        # later access (the truncation below guarantees that).
        full_miss = first_gid & ~resident0
        partial = first_pair & ~bit_set0 & ~full_miss

        miss_positions = np.flatnonzero(full_miss)
        limit = n
        evictions = 0
        evicted: list[int] = []
        if miss_positions.size:
            free = self._free
            n_blocks = self.config.n_blocks
            seg_start = 0
            for p in miss_positions.tolist():
                if p >= limit:
                    break
                if p > seg_start:
                    policy.touch_many(blk[seg_start:p])
                gid = int(g[p])
                if free:
                    b = free.pop()
                elif self._next_unused < n_blocks:
                    b = self._next_unused
                    self._next_unused += 1
                else:
                    b = policy.victim()
                    old = int(brl[b])
                    if old >= 0:
                        t_block[old] = -1
                        t_sectors[old] = 0
                        evictions += 1
                        evicted.append(old)
                        # If the evicted entry recurs later in this chunk,
                        # the optimistic classification is stale from the
                        # re-access on: truncate there and let the caller
                        # reprocess the remainder against fresh state.
                        lo = int(np.searchsorted(sg, old, side="left"))
                        if lo < n and sg[lo] == old:
                            occ = order[lo : group_end[group_of[lo]]]
                            j = int(np.searchsorted(occ, p, side="right"))
                            if j < len(occ) and occ[j] < limit:
                                limit = int(occ[j])
                brl[b] = gid
                t_block[gid] = b
                # Later accesses to this gid in the chunk hit block b. The
                # miss is the gid's first occurrence, so its sorted group
                # starts at this access.
                occ = order[rank[p] + 1 : group_end[group_of[rank[p]]]]
                if len(occ):
                    blk[occ] = b
                policy.touch(b)
                seg_start = p + 1
            if seg_start < limit:
                policy.touch_many(blk[seg_start:limit])
        else:
            policy.touch_many(blk)

        # Sector updates commute with everything above except the eviction
        # clears — and a cleared entry is never re-ORed within the processed
        # prefix (truncation) — so OR once, then re-clear evicted entries.
        upd = np.flatnonzero((partial | full_miss)[:limit])
        if len(upd):
            np.bitwise_or.at(t_sectors, g[upd], bits[upd])
        if evicted:
            t_sectors[np.asarray(evicted, dtype=np.int64)] = 0

        fm = int(np.count_nonzero(full_miss[:limit]))
        ph = int(np.count_nonzero(partial[:limit]))
        return limit, limit - fm - ph, ph, fm, evictions

    # ------------------------------------------------------------------
    def deallocate_texture(self, tid: int) -> int:
        """Release a deleted texture's page-table extent (§5.2).

        Frees every physical block the extent ``tstart .. tstart+tlen``
        owns, in one set of mask operations. Returns the number of blocks
        released.
        """
        tstart, tlen = self.space.l2_extent(tid, self.config.l2_tile_texels)
        extent = slice(tstart, tstart + tlen)
        blocks = self._t_block[extent]
        owned = blocks[blocks >= 0]
        if len(owned):
            self._brl_t_index[owned] = -1
            # Ascending page-table order, matching a loop over the extent.
            self._free.extend(owned.tolist())
            self._t_block[extent] = -1
            self._t_sectors[extent] = 0
        return len(owned)


class SetAssociativeL2Cache:
    """A conventionally-indexed L2 for the §5.1 organization ablation.

    Virtual blocks map to ``set = gid mod n_sets`` with per-set LRU over
    ``ways`` lines. §5.1 predicts this suffers collisions between textures
    (and between distant blocks of large textures) that the page-table
    organization avoids; the ablation bench quantifies that.

    The batched engine exploits the Mattson inclusion property: sorting the
    carried per-set state plus the frame's accesses stably by set index
    yields per-set substreams on which an access hits iff its LRU stack
    distance is below ``ways``; residency episodes (spans between refills)
    then separate full from partial hits.
    """

    def __init__(
        self,
        config: L2CacheConfig,
        space: AddressSpace,
        ways: int = 4,
    ):
        if ways < 1 or config.n_blocks % ways:
            raise ValueError(
                f"ways ({ways}) must divide the block count ({config.n_blocks})"
            )
        self.config = config
        self.space = space
        self.ways = ways
        self.n_sets = config.n_blocks // ways
        # Per-set list of resident gids, LRU order (front = oldest).
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self._sectors: dict[int, int] = {}

    def snapshot_state(self) -> dict:
        """Capture per-set residency (LRU order) and sector bit-vectors."""
        return {
            "sets": [list(content) for content in self._sets],
            "sector_gids": [int(g) for g in self._sectors],
            "sector_bits": [int(b) for b in self._sectors.values()],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` tree; inverse of the snapshot."""
        sets = state["sets"]
        if len(sets) != self.n_sets:
            raise ValueError("L2 checkpoint does not match the set count")
        self._sets = [[int(g) for g in content] for content in sets]
        self._sectors = {
            int(g): int(b)
            for g, b in zip(state["sector_gids"], state["sector_bits"])
        }

    def access_frame(self, miss_refs: np.ndarray) -> L2FrameResult:
        """Run one frame's L1 miss stream through the set-associative L2."""
        gids, subs = self.space.l2_addresses(miss_refs, self.config.l2_tile_texels)
        return self.access_blocks(gids, subs)

    def access_blocks(self, gids: np.ndarray, subs: np.ndarray) -> L2FrameResult:
        """Stack-distance classification of a whole frame at once.

        Lower-level entry point taking pre-translated addresses.
        """
        from repro.analytic.stack_distance import stack_distances

        gids = np.asarray(gids, dtype=np.int64)
        subs = np.asarray(subs, dtype=np.int64)
        n = len(gids)
        if n == 0:
            return L2FrameResult(0, 0, 0, 0, 0)
        ways = self.ways
        n_sets = self.n_sets

        # Carried state becomes a synthetic prefix: each set's residents in
        # LRU order, so the LRU stack right after the prefix equals the
        # cache. Synthetic accesses carry sub = -1 (no sector semantics).
        state_gids = [gid for content in self._sets for gid in content]
        n_state = len(state_gids)
        if n_state:
            all_gids = np.concatenate(
                [np.asarray(state_gids, dtype=np.int64), gids]
            )
            all_subs = np.concatenate(
                [np.full(n_state, -1, dtype=np.int64), subs]
            )
        else:
            all_gids = gids
            all_subs = subs
        all_sets = all_gids % n_sets
        m = len(all_gids)

        # Stable sort by set: per-set substreams stay in temporal order, so
        # stack distances computed on the sorted stream are per-set exact
        # (a gid belongs to exactly one set).
        order = np.argsort(all_sets, kind="stable")
        stream = all_gids[order]
        sub_stream = all_subs[order]
        is_real = order >= n_state

        d = stack_distances(stream)
        resident = (d >= 0) & (d < ways)

        # Occupancy before each access = min(distinct gids seen so far in
        # the set, ways); a miss evicts iff the set is already full.
        cold = d < 0
        before = np.cumsum(cold) - cold
        ss = all_sets[order]
        set_boundary = np.empty(m, dtype=bool)
        set_boundary[0] = True
        np.not_equal(ss[1:], ss[:-1], out=set_boundary[1:])
        set_group = np.cumsum(set_boundary) - 1
        distinct_before = before - before[set_boundary][set_group]

        miss = is_real & ~resident
        evict = miss & (distinct_before >= ways)
        full_miss = int(np.count_nonzero(miss))
        evictions = int(np.count_nonzero(evict))

        # Residency episodes: per gid, the episode number is the count of
        # refills (real misses) at or before the access; episode 0 is the
        # carried residency.
        order2 = np.argsort(stream, kind="stable")
        sg2 = stream[order2]
        gid_boundary = np.empty(m, dtype=bool)
        gid_boundary[0] = True
        np.not_equal(sg2[1:], sg2[:-1], out=gid_boundary[1:])
        fills = miss[order2].astype(np.int64)
        ep = np.cumsum(fills)
        ep_base = (ep - fills)[gid_boundary]
        episode2 = ep - ep_base[np.cumsum(gid_boundary) - 1]
        episode = np.empty(m, dtype=np.int64)
        episode[order2] = episode2

        # First occurrence of each (gid, episode, sub) triple; within an
        # episode the first touch of a sub-block is the download.
        order3 = np.lexsort((sub_stream, episode, stream))
        k_g = stream[order3]
        k_e = episode[order3]
        k_s = sub_stream[order3]
        tb = np.empty(m, dtype=bool)
        tb[0] = True
        tb[1:] = (k_g[1:] != k_g[:-1]) | (k_e[1:] != k_e[:-1]) | (k_s[1:] != k_s[:-1])
        first_pes = np.zeros(m, dtype=bool)
        first_pes[order3] = tb

        hit = is_real & resident
        full_hits = int(np.count_nonzero(hit & ~first_pes))
        partial = int(np.count_nonzero(hit & first_pes & (episode > 0)))
        # Episode-0 hits on a new sub consult the carried sector bits.
        sectors = self._sectors
        for i in np.flatnonzero(hit & first_pes & (episode == 0)).tolist():
            if sectors.get(int(stream[i]), 0) >> int(sub_stream[i]) & 1:
                full_hits += 1
            else:
                partial += 1

        # ---- end state -------------------------------------------------
        # Residents = per set, the `ways` most recently used distinct gids.
        rev = all_gids[::-1]
        uniq, ridx = np.unique(rev, return_index=True)
        last_pos = m - 1 - ridx
        su = uniq % n_sets
        o = np.lexsort((-last_pos, su))
        ssu = su[o]
        sb = np.empty(len(o), dtype=bool)
        sb[0] = True
        np.not_equal(ssu[1:], ssu[:-1], out=sb[1:])
        in_set_rank = np.arange(len(o)) - np.flatnonzero(sb)[np.cumsum(sb) - 1]
        keep = o[in_set_rank < ways]
        keep = keep[np.argsort(last_pos[keep])]  # recency order, oldest first
        new_sets: list[list[int]] = [[] for _ in range(n_sets)]
        for gid in uniq[keep].tolist():
            new_sets[gid % n_sets].append(gid)

        # Sector bits of a resident gid = union over its final episode,
        # plus the carried bits when that episode is the carried one.
        ge_boundary = np.empty(m, dtype=bool)
        ge_boundary[0] = True
        ge_boundary[1:] = (k_g[1:] != k_g[:-1]) | (k_e[1:] != k_e[:-1])
        seg_starts = np.flatnonzero(ge_boundary)
        shift = np.where(k_s >= 0, k_s, 0).astype(np.uint64)
        bits_sorted = np.where(
            k_s >= 0, np.uint64(1) << shift, np.uint64(0)
        )
        seg_bits = np.bitwise_or.reduceat(bits_sorted, seg_starts)
        seg_gid = k_g[seg_starts]
        seg_ep = k_e[seg_starts]
        is_last_seg = np.empty(len(seg_starts), dtype=bool)
        is_last_seg[-1] = True
        np.not_equal(seg_gid[1:], seg_gid[:-1], out=is_last_seg[:-1])
        final_bits = {
            int(gg): (int(bb) | (sectors.get(int(gg), 0) if ee == 0 else 0))
            for gg, bb, ee in zip(
                seg_gid[is_last_seg], seg_bits[is_last_seg], seg_ep[is_last_seg]
            )
        }
        self._sets = new_sets
        self._sectors = {
            gid: final_bits[gid] for content in new_sets for gid in content
        }

        return L2FrameResult(
            accesses=n,
            full_hits=full_hits,
            partial_hits=partial,
            full_misses=full_miss,
            evictions=evictions,
        )
