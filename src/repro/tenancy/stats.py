"""Per-tenant frame-stat vectors for multi-tenant runs.

One :class:`TenantFrameStats` rides along on each
:class:`~repro.core.hierarchy.FrameCacheStats` of a tenancy-enabled run:
every field is an int64 vector indexed by tenant, summing exactly to the
frame's whole-stream counter of the same name. L2/TLB columns are zero
when the level is not configured, so the column set is fixed and the
columnar (de)serialization shared by the simulation store and the
checkpoint format stays shape-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["FRAME_TENANT_COLUMNS", "TenantFrameStats"]

#: Field order of the per-tenant columns (serialization contract).
FRAME_TENANT_COLUMNS = (
    "texel_reads",
    "l1_accesses",
    "l1_misses",
    "l2_accesses",
    "l2_full_hits",
    "l2_partial_hits",
    "l2_full_misses",
    "l2_evictions",
    "tlb_accesses",
    "tlb_hits",
)


@dataclass(eq=False)
class TenantFrameStats:
    """One frame's transaction counts broken down by tenant.

    For the shared (unpartitioned) L2, ``l2_evictions`` attributes each
    eviction to the tenant whose run of L1 misses triggered it.
    """

    texel_reads: np.ndarray
    l1_accesses: np.ndarray
    l1_misses: np.ndarray
    l2_accesses: np.ndarray
    l2_full_hits: np.ndarray
    l2_partial_hits: np.ndarray
    l2_full_misses: np.ndarray
    l2_evictions: np.ndarray
    tlb_accesses: np.ndarray
    tlb_hits: np.ndarray

    def __post_init__(self) -> None:
        n = None
        for f in fields(self):
            arr = np.asarray(getattr(self, f.name), dtype=np.int64)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(
                    f"{f.name} must be a non-empty 1-D vector, got "
                    f"shape {arr.shape}"
                )
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise ValueError(
                    f"{f.name} has {arr.size} tenants, expected {n}"
                )
            setattr(self, f.name, arr)

    @classmethod
    def zeros(cls, n_tenants: int) -> TenantFrameStats:
        """All-zero stats for ``n_tenants`` tenants."""
        return cls(
            **{
                name: np.zeros(n_tenants, dtype=np.int64)
                for name in FRAME_TENANT_COLUMNS
            }
        )

    @classmethod
    def sum(cls, parts) -> TenantFrameStats:
        """Elementwise sum of several per-tenant stat vectors."""
        parts = list(parts)
        if not parts:
            raise ValueError("nothing to sum")
        return cls(
            **{
                f.name: np.sum(
                    [getattr(p, f.name) for p in parts], axis=0
                ).astype(np.int64)
                for f in fields(cls)
            }
        )

    @property
    def n_tenants(self) -> int:
        """How many tenants share the stream."""
        return int(self.texel_reads.size)

    @property
    def host_downloads(self) -> np.ndarray:
        """Per-tenant host block downloads (partial hits + full misses)."""
        return self.l2_partial_hits + self.l2_full_misses

    def __eq__(self, other) -> bool:
        if not isinstance(other, TenantFrameStats):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )
