"""Multi-tenant serving: contention and partitioning on a shared L2.

A serving accelerator multiplexes N independent rendering contexts over
one texture-cache hierarchy. This experiment merges N tenant traces into
one shared stream with the seeded round-robin scheduler and sweeps the
L2 partitioning policy. The tenants alternate Terrain and Village: the
Mosaic setting (arXiv 1804.11265) of a streaming tenant beside a
cache-friendly one, where partitioning has something to protect. The
policies are:

* ``none`` — shared free-for-all; tenants evict each other at will;
* ``static`` — equal per-tenant block quotas;
* ``way`` — a way-partitioned set-associative L2 (one slice per tenant);
* ``utility`` — quotas allocated greedily from each tenant's analytic
  miss-ratio curve (marginal-hits-per-block lookahead).

Fairness is measured against *isolated* baselines (each workload run
alone on the same hierarchy): per-tenant slowdown, Jain's index over
throughput (1/slowdown), and the worst tenant's P99 frame cost. Two
contracts are asserted rather than reported: the per-tenant stat
breakdown must sum exactly to the shared-run totals, and at two tenants
the best partitioned policy must beat the unpartitioned L2 on
worst-tenant slowdown by at least :data:`MIN_PARTITION_MARGIN`.
Utility's margin over "none" is reported at every N, not asserted: it
reverses at eight tenants. A from-scratch rerun of one shared point
proves the merged-stream simulation is deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.experiments.config import L1_LOW_BYTES, Scale, scaled_l2_sizes
from repro.experiments.reporting import ExperimentResult, format_table, kb
from repro.experiments.simcache import prewarm, simulate
from repro.experiments.traces import get_trace
from repro.tenancy import (
    POLICIES,
    TenancyConfig,
    jain_index,
    merge_traces,
    slowdowns,
    static_quotas,
    utility_quotas,
    way_quotas,
    worst_tenant_p99_cost_us,
)
from repro.texture.sampler import FilterMode

__all__ = ["run_tenancy"]

#: Tenant counts swept (the paper's single-context runs are N=1).
TENANT_COUNTS = (2, 4, 8)

#: Tenant i runs WORKLOADS[i % len(WORKLOADS)]: a streaming tenant
#: (terrain) beside a cache-friendly one (Village).
WORKLOADS = ("terrain", "village")

#: Associativity of the way-partitioned L2 scenario.
TOTAL_WAYS = 8

#: Least worst-tenant slowdown margin of the best partitioned policy over
#: "none" at two tenants. Over scene seeds 1-10 at bench scale the margins
#: are 0.039-0.070 with an IQR of at most 0.0013 (DESIGN §11.5).
MIN_PARTITION_MARGIN = 0.01


def _shared_config(
    l2: L2CacheConfig, tlb_entries: int, tenancy: TenancyConfig | None
) -> HierarchyConfig:
    return HierarchyConfig(
        l1=L1CacheConfig(size_bytes=L1_LOW_BYTES),
        l2=l2,
        tlb_entries=tlb_entries,
        tenancy=tenancy,
    )


def run_tenancy(scale: Scale | None = None) -> ExperimentResult:
    """Contention and partitioning for N tenants sharing one L2."""
    scale = scale or Scale.from_env()
    l2_label, l2_bytes = scaled_l2_sizes(scale)[0]
    l2 = L2CacheConfig(size_bytes=l2_bytes, l2_tile_texels=16)
    tlb_entries = 16
    base_traces = {
        w: get_trace(w, scale, FilterMode.BILINEAR) for w in WORKLOADS
    }

    # Isolated baselines: each workload alone on the same hierarchy.
    iso_config = _shared_config(l2, tlb_entries, None)
    iso_points = [(base_traces[w], iso_config) for w in WORKLOADS]

    # Shared runs: one merged trace per N (identical across policies),
    # one TenancyConfig per policy.
    sweep: list[tuple[int, str, object, HierarchyConfig]] = []
    for n in TENANT_COUNTS:
        tenant_traces = [
            base_traces[WORKLOADS[i % len(WORKLOADS)]] for i in range(n)
        ]
        merged, tid_bases = merge_traces(tenant_traces, schedule="rr", seed=0)
        for policy in POLICIES:
            if policy == "static":
                quotas = static_quotas(l2, n)
            elif policy == "way":
                quotas = way_quotas(TOTAL_WAYS, n)
            elif policy == "utility":
                quotas = utility_quotas(tenant_traces, L1_LOW_BYTES, l2)
            else:
                quotas = None
            tenancy = TenancyConfig(
                tid_bases=tid_bases,
                policy=policy,
                quotas=quotas,
                ways=TOTAL_WAYS,
            )
            sweep.append(
                (n, policy, merged, _shared_config(l2, tlb_entries, tenancy))
            )

    prewarm(iso_points + [(t, c) for _, _, t, c in sweep])
    iso_frames = {w: simulate(*p).frames for w, p in zip(WORKLOADS, iso_points)}

    rows = []
    data: dict = {
        "l2": {"label": l2_label, "bytes": l2_bytes},
        "l1_bytes": L1_LOW_BYTES,
        "tlb_entries": tlb_entries,
        "workloads": list(WORKLOADS),
        "points": {},
    }
    worst_sd: dict[tuple[int, str], float] = {}
    for n, policy, merged, config in sweep:
        res = simulate(merged, config)
        # Contract: the per-tenant breakdown must sum to the shared totals.
        for f in res.frames:
            if f.tenants is None or int(f.tenants.texel_reads.sum()) != f.texel_reads:
                raise AssertionError(
                    f"per-tenant texel reads do not sum to the frame total "
                    f"(N={n}, policy={policy})"
                )
        sd = slowdowns(
            res.frames,
            [iso_frames[WORKLOADS[i % len(WORKLOADS)]] for i in range(n)],
        )
        jain = jain_index(1.0 / sd)
        p99 = worst_tenant_p99_cost_us(res.frames)
        worst_sd[(n, policy)] = float(sd.max())
        data["points"][f"n{n}_{policy}"] = {
            "tenants": n,
            "policy": policy,
            "slowdowns": [float(s) for s in sd],
            "jain": jain,
            "worst_p99_us": p99,
            "agp_bytes_per_frame": res.mean_agp_bytes_per_frame,
            "l2_full_hit_rate": res.l2_full_hit_rate,
        }
        rows.append(
            [
                str(n),
                policy,
                f"{sd.mean():.3f}",
                f"{sd.max():.3f}",
                f"{jain:.3f}",
                f"{p99:.0f} us",
                f"{res.mean_agp_bytes_per_frame / 1024:.0f} KB",
            ]
        )

    # Contract: at two tenants the best partitioned policy beats the
    # unpartitioned free-for-all on worst-tenant slowdown.
    n = TENANT_COUNTS[0]
    partitioned = [p for p in POLICIES if p != "none"]
    best = min(partitioned, key=lambda p: worst_sd[(n, p)])
    best_margin = worst_sd[(n, "none")] - worst_sd[(n, best)]
    if best_margin < MIN_PARTITION_MARGIN:
        raise AssertionError(
            f"at N={n} the best partitioned policy ({best}) beat the "
            f"unpartitioned L2 on worst-tenant slowdown by {best_margin:.4f}, "
            f"under {MIN_PARTITION_MARGIN}"
        )
    data["best_vs_none"] = {"tenants": n, "policy": best, "margin": best_margin}
    data["utility_vs_none_margins"] = {
        str(n): worst_sd[(n, "none")] - worst_sd[(n, "utility")]
        for n in TENANT_COUNTS
    }

    # Determinism proof: re-simulate the largest unpartitioned point from
    # scratch (bypassing memo and store) and require identical frames.
    n, policy, merged, config = next(
        p for p in sweep if p[0] == TENANT_COUNTS[-1] and p[1] == "none"
    )
    fresh = MultiLevelTextureCache(config, merged.address_space).run_trace(merged)
    if fresh.frames != simulate(merged, config).frames:
        raise AssertionError(
            "merged-stream simulation is not deterministic under reruns"
        )
    data["determinism"] = {"tenants": n, "policy": policy}

    note = (
        f"\nShared hierarchy: L1 {kb(L1_LOW_BYTES)}, L2 {l2_label} role "
        f"({kb(l2_bytes)} at this scale), TLB {tlb_entries} entries; "
        "round-robin interleave, seed 0. Slowdowns are against each "
        "workload run alone on the same hierarchy. The per-tenant stat "
        "breakdown sums exactly to the shared totals, and at N=2 the best "
        f"partitioned policy ({best}) beats the free-for-all on worst-tenant "
        f"slowdown by {best_margin:.3f} (both asserted)."
    )
    return ExperimentResult(
        experiment_id="tenancy",
        title="Multi-tenant serving contention (terrain+village mix)",
        text=format_table(
            [
                "tenants",
                "policy",
                "mean slowdown",
                "worst slowdown",
                "Jain",
                "worst P99",
                "AGP/frame",
            ],
            rows,
        )
        + note,
        data=data,
        scale_name=scale.name,
    )
