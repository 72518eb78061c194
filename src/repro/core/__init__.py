"""The paper's contribution: multi-level texture caching.

* :mod:`repro.core.l1_cache` — the on-chip L1 texture cache (2-way
  set-associative, 4x4 tiles of 32-bit texels), with an exactly-equivalent
  vectorized simulation of per-set LRU.
* :mod:`repro.core.policies` — block replacement policies for the L2: the
  paper's "clock" approximation of LRU, plus true LRU / FIFO / random for
  the §6 replacement ablation.
* :mod:`repro.core.l2_cache` — the virtual-memory-style L2 texture cache:
  texture page table, block replacement list, sector mapping (§5.1-5.2); a
  set-associative variant for the §5.1 organization discussion.
* :mod:`repro.core.tlb` — the texture page table TLB (§5.4.3).
* :mod:`repro.core.hierarchy` — Figure 7 control flow over L1 + L2 + TLB
  with transaction-accurate bandwidth accounting.
* :mod:`repro.core.architectures` — the three architectures of Figure 1:
  push, pull, and the proposed L2 caching architecture.
* :mod:`repro.core.model` — the closed-form models: expected working set
  (§4.1), structure sizing (Table 4), fractional advantage (§5.4.2).
"""

from repro.core.l1_cache import L1CacheConfig, L1CacheSim, L1FrameResult
from repro.core.policies import (
    ClockPolicy,
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.core.l2_cache import (
    L2CacheConfig,
    L2FrameResult,
    L2TextureCache,
    SetAssociativeL2Cache,
)
from repro.core.tlb import TextureTableTLB, TLBFrameResult
from repro.core.hierarchy import (
    MultiLevelTextureCache,
    HierarchyConfig,
    FrameCacheStats,
    TraceRunResult,
)
from repro.core.architectures import (
    PullArchitecture,
    L2CachingArchitecture,
    PushArchitecture,
    PushFrameStats,
)
from repro.core.l1_prefetch import L1PairFetchSim
from repro.core.push_manager import BudgetedPushArchitecture, BudgetedPushResult
from repro.core.streaming import StreamingDriver, StreamingResult
from repro.core.timing import (
    TimingModel,
    FrameTiming,
    estimate_frame_timings,
)
from repro.core.model import (
    expected_working_set_bytes,
    l2_structure_sizes,
    fractional_advantage,
    average_access_time_pull,
    average_access_time_l2,
    StructureSizes,
)

__all__ = [
    "L1CacheConfig",
    "L1CacheSim",
    "L1FrameResult",
    "ClockPolicy",
    "FIFOPolicy",
    "LRUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "make_policy",
    "L2CacheConfig",
    "L2FrameResult",
    "L2TextureCache",
    "SetAssociativeL2Cache",
    "TextureTableTLB",
    "TLBFrameResult",
    "MultiLevelTextureCache",
    "HierarchyConfig",
    "FrameCacheStats",
    "TraceRunResult",
    "PullArchitecture",
    "L2CachingArchitecture",
    "PushArchitecture",
    "PushFrameStats",
    "BudgetedPushArchitecture",
    "BudgetedPushResult",
    "L1PairFetchSim",
    "StreamingDriver",
    "StreamingResult",
    "TimingModel",
    "FrameTiming",
    "estimate_frame_timings",
    "expected_working_set_bytes",
    "l2_structure_sizes",
    "fractional_advantage",
    "average_access_time_pull",
    "average_access_time_l2",
    "StructureSizes",
]
