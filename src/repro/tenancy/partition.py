"""L2/TLB partitioning policies for multi-tenant streams.

Partitioning is implemented by *composition*, not by touching the cache
kernels: a strict partition of a shared cache is exactly equivalent to
giving each tenant a private cache of its quota, because tenants own
disjoint global-block-id ranges in the merged page table
(:mod:`repro.tenancy.address`), so no line could ever be shared.

* ``static`` / ``utility`` — per-tenant
  :class:`~repro.core.l2_cache.L2TextureCache` instances sized to a block
  quota. ``static`` splits blocks by scheduler weight
  (:func:`static_quotas`); ``utility`` allocates blocks by marginal hit
  gain read off each tenant's analytic miss-ratio curve
  (:func:`utility_quotas`, Qureshi-style lookahead).
* ``way`` — per-tenant :class:`~repro.core.l2_cache.SetAssociativeL2Cache`
  instances that keep the *shared* set count but hold only the tenant's
  quota of ways, which is precisely hardware way-partitioning of one
  shared set-associative array.

Both cache classes already have bit-identical batched and reference
engines, and both engines are invariant to how the access stream is
chunked into calls — so every policy is automatically available on both
engines, and the differential tests assert the identity end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.l2_cache import (
    L2CacheConfig,
    L2TextureCache,
    SetAssociativeL2Cache,
)
from repro.core.tlb import TextureTableTLB
from repro.texture.tiling import AddressSpace

__all__ = [
    "POLICIES",
    "TenancyConfig",
    "PartitionedL2",
    "PartitionedTLB",
    "split_quota",
    "static_quotas",
    "way_quotas",
    "utility_quotas",
]

POLICIES = ("none", "static", "way", "utility")


@dataclass(frozen=True)
class TenancyConfig:
    """Multi-tenant wiring of a hierarchy over a merged trace.

    Attributes:
        tid_bases: per-tenant first texture id in the merged address space
            (from :func:`~repro.tenancy.schedule.merge_traces`).
        policy: L2 partitioning policy — ``none`` (shared, free-for-all),
            ``static``/``utility`` (block quotas), ``way`` (way quotas).
        quotas: per-tenant quota; physical blocks for ``static``/
            ``utility``, ways for ``way``. None only for ``none``.
        tlb_quotas: optional per-tenant TLB entry quotas (shared TLB
            when None).
        ways: total ways of the way-partitioned array (``way`` only).
    """

    tid_bases: tuple[int, ...]
    policy: str = "none"
    quotas: tuple[int, ...] | None = None
    tlb_quotas: tuple[int, ...] | None = None
    ways: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "tid_bases", tuple(int(b) for b in self.tid_bases)
        )
        if self.quotas is not None:
            object.__setattr__(
                self, "quotas", tuple(int(q) for q in self.quotas)
            )
        if self.tlb_quotas is not None:
            object.__setattr__(
                self, "tlb_quotas", tuple(int(q) for q in self.tlb_quotas)
            )
        if not self.tid_bases or self.tid_bases[0] != 0:
            raise ValueError(
                f"tid_bases must be non-empty and start at 0: {self.tid_bases}"
            )
        if any(
            b >= c for b, c in zip(self.tid_bases, self.tid_bases[1:])
        ):
            raise ValueError(
                f"tid_bases must be strictly increasing: {self.tid_bases}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown tenancy policy {self.policy!r}; "
                f"choose from {POLICIES}"
            )
        n = self.n_tenants
        if self.policy == "none":
            if self.quotas is not None:
                raise ValueError("the unpartitioned policy takes no quotas")
        else:
            if self.quotas is None or len(self.quotas) != n:
                raise ValueError(
                    f"policy {self.policy!r} needs one quota per tenant "
                    f"({n}), got {self.quotas}"
                )
            if any(q < 1 for q in self.quotas):
                raise ValueError(
                    f"quotas must be >= 1: {self.quotas}"
                )
        if self.tlb_quotas is not None:
            if len(self.tlb_quotas) != n or any(
                q < 1 for q in self.tlb_quotas
            ):
                raise ValueError(
                    f"tlb_quotas must be {n} positive entries, "
                    f"got {self.tlb_quotas}"
                )
        if self.ways < 1:
            raise ValueError(f"ways must be >= 1, got {self.ways}")
        if self.policy == "way":
            if self.n_tenants > self.ways:
                raise ValueError(
                    f"{self.n_tenants} tenants cannot each own a way of "
                    f"a {self.ways}-way array"
                )
            if sum(self.quotas) > self.ways:
                raise ValueError(
                    f"way quotas {self.quotas} exceed the array's "
                    f"{self.ways} ways"
                )

    @property
    def n_tenants(self) -> int:
        """How many tenants share the stream."""
        return len(self.tid_bases)


class PartitionedL2:
    """Strictly partitioned L2: one private sub-cache per tenant.

    The hierarchy feeds each tenant's L1 misses to ``parts[tenant]``.
    """

    def __init__(
        self,
        config: L2CacheConfig,
        space: AddressSpace,
        tenancy: TenancyConfig,
    ):
        if tenancy.policy not in ("static", "way", "utility"):
            raise ValueError(
                f"PartitionedL2 needs a partitioning policy, "
                f"got {tenancy.policy!r}"
            )
        self.config = config
        self.tenancy = tenancy
        quotas = tenancy.quotas
        self.parts: list[L2TextureCache | SetAssociativeL2Cache]
        if tenancy.policy == "way":
            if config.n_blocks % tenancy.ways:
                raise ValueError(
                    f"total ways ({tenancy.ways}) must divide the block "
                    f"count ({config.n_blocks})"
                )
            n_sets = config.n_blocks // tenancy.ways
            self.parts = [
                SetAssociativeL2Cache(
                    replace(config, size_bytes=n_sets * q * config.block_bytes),
                    space,
                    ways=q,
                )
                for q in quotas
            ]
        else:
            if sum(quotas) > config.n_blocks:
                raise ValueError(
                    f"block quotas {quotas} exceed the L2's "
                    f"{config.n_blocks} blocks"
                )
            self.parts = [
                L2TextureCache(
                    replace(config, size_bytes=q * config.block_bytes), space
                )
                for q in quotas
            ]

    def snapshot_state(self) -> dict:
        """Per-partition state for frame-granular checkpointing."""
        return {"parts": [p.snapshot_state() for p in self.parts]}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` tree; inverse of the snapshot."""
        parts = state["parts"]
        if len(parts) != len(self.parts):
            raise ValueError(
                "L2 partition checkpoint does not match the tenant count"
            )
        for part, sub in zip(self.parts, parts):
            part.restore_state(sub)


class PartitionedTLB:
    """Strictly partitioned TLB: one private sub-TLB per tenant.

    The hierarchy translates each tenant's L1 misses in ``parts[tenant]``.
    """

    def __init__(
        self,
        n_entries: int,
        policy: str,
        tenancy: TenancyConfig,
    ):
        quotas = tenancy.tlb_quotas
        if quotas is None:
            raise ValueError("PartitionedTLB needs tlb_quotas")
        if sum(quotas) > n_entries:
            raise ValueError(
                f"TLB quotas {quotas} exceed the {n_entries} entries"
            )
        self.parts = [TextureTableTLB(q, policy) for q in quotas]

    def snapshot_state(self) -> dict:
        """Per-partition state for frame-granular checkpointing."""
        return {"parts": [p.snapshot_state() for p in self.parts]}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` tree; inverse of the snapshot."""
        parts = state["parts"]
        if len(parts) != len(self.parts):
            raise ValueError(
                "TLB partition checkpoint does not match the tenant count"
            )
        for part, sub in zip(self.parts, parts):
            part.restore_state(sub)


# ----------------------------------------------------------------------
# Quota computation
# ----------------------------------------------------------------------
def split_quota(total: int, weights, minimum: int = 1) -> tuple[int, ...]:
    """Deterministic largest-remainder split of an integer budget.

    Shares are proportional to ``weights``, each at least ``minimum``,
    and sum exactly to ``total``. Ties go to the lower tenant index.
    """
    warr = np.asarray([float(w) for w in weights])
    n = len(warr)
    if n == 0 or np.any(warr <= 0):
        raise ValueError(f"weights must be non-empty and positive: {weights}")
    if total < n * minimum:
        raise ValueError(
            f"cannot split {total} into {n} shares of at least {minimum}"
        )
    raw = total * warr / warr.sum()
    shares = np.maximum(np.floor(raw).astype(np.int64), minimum)
    # Hand out (or claw back) the remainder one unit at a time, always at
    # the spot that deviates most from proportionality — deterministic
    # because argmax/argmin take the first extremum.
    while shares.sum() < total:
        shares[np.argmax(raw - shares)] += 1
    while shares.sum() > total:
        over = np.where(shares > minimum, shares - raw, -np.inf)
        shares[np.argmax(over)] -= 1
    return tuple(int(s) for s in shares)


def static_quotas(
    config: L2CacheConfig, n_tenants: int, weights=None
) -> tuple[int, ...]:
    """Static block quotas: the whole L2 split by scheduler weight."""
    return split_quota(
        config.n_blocks, weights if weights is not None else [1.0] * n_tenants
    )


def way_quotas(
    total_ways: int, n_tenants: int, weights=None
) -> tuple[int, ...]:
    """Way quotas: the shared array's ways split by scheduler weight."""
    return split_quota(
        total_ways, weights if weights is not None else [1.0] * n_tenants
    )


def utility_quotas(
    traces,
    l1_bytes: int,
    config: L2CacheConfig,
    l1_ways: int = 2,
) -> tuple[int, ...]:
    """Utility-based block quotas from per-tenant analytic MRCs.

    Runs the Qureshi-style lookahead allocator: every tenant starts with
    one block, then the remaining budget goes, step by step, to the
    tenant whose miss-ratio curve offers the highest marginal hits per
    block over *any* lookahead distance — which steps over the convex
    plateaus that defeat greedy single-block allocation. Entirely
    analytic (one stack-distance pass per tenant), so it is cheap enough
    to recompute per sweep point.
    """
    from repro.analytic.mrc import l2_block_mrc  # noqa: PLC0415 — keeps
    # repro.tenancy importable without pulling the analytic stack in at
    # module load (hierarchy -> partition must stay cycle-free).

    traces = list(traces)
    n_blocks = config.n_blocks
    n = len(traces)
    if n_blocks < n:
        raise ValueError(
            f"{n_blocks} blocks cannot give {n} tenants one block each"
        )
    caps = np.arange(1, n_blocks + 1)
    hits = []
    for trace in traces:
        curve = l2_block_mrc(
            trace,
            l1_bytes,
            caps,
            l2_tile_texels=config.l2_tile_texels,
            l1_ways=l1_ways,
        )
        # hits[c] = hits with c blocks, c = 0..n_blocks (0 blocks -> 0).
        hits.append(
            np.concatenate([[0], curve.accesses - curve.misses]).astype(
                np.float64
            )
        )

    alloc = np.ones(n, dtype=np.int64)
    budget = n_blocks - n
    while budget > 0:
        best_mu = -np.inf
        best_t = best_k = -1
        for t in range(n):
            h = hits[t]
            span = min(budget, n_blocks - int(alloc[t]))
            if span <= 0:
                continue
            gain = h[alloc[t] + 1 : alloc[t] + span + 1] - h[alloc[t]]
            mu = gain / np.arange(1, span + 1)
            k = int(np.argmax(mu))
            if mu[k] > best_mu:
                best_mu = float(mu[k])
                best_t, best_k = t, k + 1
        if best_mu <= 0:
            # No curve gains anything from more blocks; split the rest
            # evenly so the partition stays total.
            alloc += np.asarray(
                split_quota(int(budget) + n, [1.0] * n)
            ) - 1
            break
        alloc[best_t] += best_k
        budget -= best_k
    return tuple(int(a) for a in alloc)
