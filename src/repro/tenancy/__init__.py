"""Multi-tenant serving: context-tagged streams sharing one L2/TLB.

The subsystem turns the single-context simulator into the ROADMAP's
serving scenario: N independent rendering contexts are tenant-tagged in
the packed address space (:mod:`repro.tenancy.address`), interleaved into
one shared stream by deterministic seeded schedulers
(:mod:`repro.tenancy.schedule`), run through a shared or partitioned L2
and one shared TLB (:mod:`repro.tenancy.partition`), and scored with
per-tenant fairness metrics (:mod:`repro.tenancy.metrics`). See DESIGN §11.
"""

from repro.tenancy.address import (
    TENANT_TID_CAPACITY,
    tag_refs,
    tenant_gid_extents,
    tenant_of_refs,
    tenant_tid_bases,
)
from repro.tenancy.metrics import (
    frame_costs_us,
    jain_index,
    slowdowns,
    tenant_frame_costs_us,
    tenant_matrix,
    worst_tenant_p99_cost_us,
)
from repro.tenancy.partition import (
    POLICIES,
    PartitionedL2,
    TenancyConfig,
    split_quota,
    static_quotas,
    utility_quotas,
    way_quotas,
)
from repro.tenancy.schedule import DEFAULT_CHUNK_REFS, SCHEDULES, merge_traces
from repro.tenancy.stats import FRAME_TENANT_COLUMNS, TenantFrameStats

__all__ = [
    "TENANT_TID_CAPACITY",
    "tag_refs",
    "tenant_tid_bases",
    "tenant_of_refs",
    "tenant_gid_extents",
    "SCHEDULES",
    "DEFAULT_CHUNK_REFS",
    "merge_traces",
    "POLICIES",
    "TenancyConfig",
    "PartitionedL2",
    "split_quota",
    "static_quotas",
    "way_quotas",
    "utility_quotas",
    "FRAME_TENANT_COLUMNS",
    "TenantFrameStats",
    "tenant_matrix",
    "tenant_frame_costs_us",
    "frame_costs_us",
    "slowdowns",
    "jain_index",
    "worst_tenant_p99_cost_us",
]
