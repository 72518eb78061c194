"""Application-level texture management for the push architecture.

The paper's push-architecture numbers assume a *perfect* replacement
algorithm ("it can predict exactly the textures required in the upcoming
frame") and decline to report push download bandwidth because it "depends
on the specific replacement and packing algorithms employed by the
application". This module supplies a concrete, realistic application-side
manager so that comparison can be made: whole textures are kept in a
fixed-size local texture memory, replaced LRU at frame boundaries — the
"segment manager" §1 says every push-architecture programmer ends up
writing.

The interesting output is the download bandwidth the push architecture
*actually* pays as a function of its memory budget, next to the L2
architecture's bandwidth at a fraction of the memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.trace import Trace
from repro.trace.workingset import frame_unique, texture_ids

__all__ = ["BudgetedPushResult", "BudgetedPushArchitecture"]


@dataclass
class BudgetedPushResult:
    """Per-frame accounting of a budgeted push run."""

    budget_bytes: int
    download_bytes: np.ndarray      # whole-texture downloads per frame
    resident_bytes: np.ndarray      # memory in use after each frame
    overflow_frames: int            # frames whose textures exceed the budget

    @property
    def mean_download_bytes(self) -> float:
        """Average whole-texture download bytes per frame."""
        return float(self.download_bytes.mean()) if len(self.download_bytes) else 0.0

    @property
    def total_download_bytes(self) -> int:
        """Whole-animation download bytes."""
        return int(self.download_bytes.sum())


class BudgetedPushArchitecture:
    """Push architecture with LRU whole-texture replacement under a budget.

    Per frame, every texture the frame touches must be resident before
    rasterization (the push architecture cannot fetch partial textures).
    Missing textures are downloaded at their original host depth; if the
    budget overflows, least-recently-used textures *not needed this frame*
    are evicted first. A frame whose own textures exceed the budget is an
    *overflow frame*: the application simply cannot fit the frame, and the
    manager keeps everything needed (real applications would drop MIP
    levels or stall — we record the violation instead).
    """

    def __init__(self, budget_bytes: int):
        if budget_bytes <= 0:
            raise ValueError(f"budget must be positive, got {budget_bytes}")
        self.budget_bytes = budget_bytes

    def run(self, trace: Trace) -> BudgetedPushResult:
        """Replay a trace under the budgeted LRU texture manager."""
        host_bytes = [t.host_bytes for t in trace.textures]
        resident: dict[int, int] = {}  # tid -> last frame used
        resident_total = 0
        downloads = np.zeros(len(trace.frames), dtype=np.int64)
        resident_curve = np.zeros(len(trace.frames), dtype=np.int64)
        overflow = 0

        for fi, frame in enumerate(trace.frames):
            needed = frame_unique(frame, texture_ids).tolist()
            needed_bytes = sum(host_bytes[t] for t in needed)
            if needed_bytes > self.budget_bytes:
                overflow += 1

            # Download missing textures.
            for tid in needed:
                if tid not in resident:
                    downloads[fi] += host_bytes[tid]
                    resident[tid] = fi
                    resident_total += host_bytes[tid]
                else:
                    resident[tid] = fi

            # Evict LRU textures not needed this frame until within budget.
            if resident_total > self.budget_bytes:
                needed_set = set(needed)
                evictable = sorted(
                    (last, tid)
                    for tid, last in resident.items()
                    if tid not in needed_set
                )
                for _, tid in evictable:
                    if resident_total <= self.budget_bytes:
                        break
                    del resident[tid]
                    resident_total -= host_bytes[tid]

            resident_curve[fi] = resident_total

        return BudgetedPushResult(
            budget_bytes=self.budget_bytes,
            download_bytes=downloads,
            resident_bytes=resident_curve,
            overflow_frames=overflow,
        )
