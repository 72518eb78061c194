"""The three architectures of Figure 1: push, pull, and L2 caching.

* :class:`PullArchitecture` — Figure 1b: textures in system memory, an
  on-chip L1 only; every L1 miss is an AGP download.
* :class:`L2CachingArchitecture` — Figure 1c: the proposed hierarchy, an L2
  in local accelerator DRAM between host memory and L1 (optionally with the
  page-table TLB).
* :class:`PushArchitecture` — Figure 1a: whole textures downloaded into
  dedicated local memory, replaced only at frame boundaries by a *perfect*
  application-level replacement algorithm ("it can predict exactly the
  textures required in the upcoming frame", §4.2) — the paper's most
  favourable baseline for push memory accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hierarchy import (
    HierarchyConfig,
    MultiLevelTextureCache,
    TraceRunResult,
)
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.trace.trace import Trace
from repro.trace.workingset import frame_unique, texture_ids

__all__ = [
    "PullArchitecture",
    "L2CachingArchitecture",
    "PushArchitecture",
    "PushFrameStats",
]


class PullArchitecture:
    """Pull architecture: L1 texture cache only, downloads over AGP."""

    def __init__(self, l1: L1CacheConfig):
        self.config = HierarchyConfig(l1=l1, l2=None)

    def run(self, trace: Trace) -> TraceRunResult:
        """Replay a trace through this architecture's hierarchy."""
        sim = MultiLevelTextureCache(self.config, trace.address_space)
        return sim.run_trace(trace)


class L2CachingArchitecture:
    """The proposed architecture: L1 + page-table L2 (+ optional TLB)."""

    def __init__(
        self,
        l1: L1CacheConfig,
        l2: L2CacheConfig,
        tlb_entries: int | None = None,
        tlb_policy: str = "round_robin",
    ):
        self.config = HierarchyConfig(
            l1=l1, l2=l2, tlb_entries=tlb_entries, tlb_policy=tlb_policy
        )

    def run(self, trace: Trace) -> TraceRunResult:
        """Replay a trace through this architecture's hierarchy."""
        sim = MultiLevelTextureCache(self.config, trace.address_space)
        return sim.run_trace(trace)


@dataclass
class PushFrameStats:
    """Per-frame push-architecture accounting."""

    #: Local texture memory needed: whole textures touched this frame, at
    #: their original host depth (perfect replacement at frame boundary).
    memory_bytes: int
    #: Download traffic: whole textures touched this frame that were not
    #: resident (not touched the previous frame).
    download_bytes: int
    #: Number of distinct textures the frame touched.
    textures_touched: int


class PushArchitecture:
    """Push architecture with the paper's perfect-replacement assumption.

    This is trace-level accounting, not a cache simulation: the push
    architecture has no blocks, only whole textures, swapped at frame
    boundaries by an oracle.
    """

    def run(self, trace: Trace) -> list[PushFrameStats]:
        """Account the trace under perfect whole-texture replacement."""
        host_bytes = np.array(
            [t.host_bytes for t in trace.textures], dtype=np.int64
        )
        out: list[PushFrameStats] = []
        prev: np.ndarray | None = None
        for frame in trace.frames:
            tids = frame_unique(frame, texture_ids)
            memory = int(host_bytes[tids].sum())
            if prev is None:
                new = tids
            else:
                new = tids[~np.isin(tids, prev, assume_unique=True)]
            out.append(
                PushFrameStats(
                    memory_bytes=memory,
                    download_bytes=int(host_bytes[new].sum()),
                    textures_touched=len(tids),
                )
            )
            prev = tids
        return out
