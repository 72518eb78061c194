"""Fairness and QoS metrics for multi-tenant runs.

The per-tenant frame cost is the transaction cost model of
:mod:`repro.core.timing` (:func:`~repro.core.timing.transaction_cycles`),
applied to each tenant's slice of the frame: L1 hit cycles over its texel
reads, conditional L2 service costs over its miss stream, TLB penalties
over its translations. From those costs:

* **slowdown** of tenant *t* — mean shared-run frame cost over the mean
  frame cost of the same trace run *alone* on the same hierarchy (the
  full L2 to itself). 1.0 means contention-free; 2.0 means the tenant's
  texturing work doubled.
* **Jain's fairness index** over per-tenant throughput (1/slowdown):
  ``(sum x)^2 / (n * sum x^2)`` — 1.0 when all tenants suffer equally,
  approaching ``1/n`` when one tenant starves.
* **worst-tenant P99 frame cost** — tail QoS: the highest 99th-percentile
  per-frame cost any tenant sees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.tenancy.stats import FRAME_TENANT_COLUMNS

if TYPE_CHECKING:  # the runtime import would be circular via repro.core
    from repro.core.timing import TimingModel


def _resolve_model(model):
    from repro.core.timing import TimingModel

    return model or TimingModel()

__all__ = [
    "tenant_matrix",
    "tenant_frame_costs_us",
    "frame_costs_us",
    "slowdowns",
    "jain_index",
    "worst_tenant_p99_cost_us",
]


def tenant_matrix(frames, field: str) -> np.ndarray:
    """Stack one per-tenant column over frames: (n_frames, n_tenants)."""
    if field not in FRAME_TENANT_COLUMNS:
        raise ValueError(f"unknown per-tenant field {field!r}")
    rows = []
    for f in frames:
        if f.tenants is None:
            raise ValueError("frames carry no per-tenant stats")
        rows.append(getattr(f.tenants, field))
    return np.stack(rows)


def tenant_frame_costs_us(
    frames, model: TimingModel | None = None
) -> np.ndarray:
    """Per-frame, per-tenant texturing cost in µs: (n_frames, n_tenants)."""
    from repro.core.timing import transaction_cycles

    model = _resolve_model(model)
    cycles = transaction_cycles(
        tenant_matrix(frames, "texel_reads"),
        tenant_matrix(frames, "l1_misses"),
        tenant_matrix(frames, "l2_full_hits"),
        tenant_matrix(frames, "l2_partial_hits"),
        tenant_matrix(frames, "l2_full_misses"),
        tenant_matrix(frames, "tlb_accesses")
        - tenant_matrix(frames, "tlb_hits"),
        any(f.l2 is not None for f in frames),
        model,
    )
    return cycles / model.clock_hz * 1e6


def frame_costs_us(frames, model: TimingModel | None = None) -> np.ndarray:
    """Per-frame texturing cost in µs of a (single-tenant) run."""
    from repro.core.timing import frame_cycles

    model = _resolve_model(model)
    return frame_cycles(frames, model) / model.clock_hz * 1e6


def slowdowns(
    shared_frames,
    isolated_frames_per_tenant,
    model: TimingModel | None = None,
) -> np.ndarray:
    """Per-tenant slowdown: mean shared cost over mean isolated cost."""
    model = _resolve_model(model)
    shared = tenant_frame_costs_us(shared_frames, model).mean(axis=0)
    isolated = np.array(
        [
            frame_costs_us(frames, model).mean()
            for frames in isolated_frames_per_tenant
        ]
    )
    if len(isolated) != len(shared):
        raise ValueError(
            f"{len(isolated)} isolated runs for {len(shared)} tenants"
        )
    if np.any(isolated <= 0):
        raise ValueError("isolated frame costs must be positive")
    return shared / isolated


def jain_index(values) -> float:
    """Jain's fairness index of a non-negative allocation vector."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0 or np.any(x < 0):
        raise ValueError(f"need a non-empty, non-negative vector: {values}")
    total_sq = float(x.sum()) ** 2
    denom = x.size * float((x * x).sum())
    return total_sq / denom if denom > 0 else 1.0


def worst_tenant_p99_cost_us(
    frames, model: TimingModel | None = None
) -> float:
    """Highest per-tenant 99th-percentile frame cost (tail QoS)."""
    costs = tenant_frame_costs_us(frames, model)
    return float(np.percentile(costs, 99, axis=0).max())
