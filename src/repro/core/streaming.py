"""Texture streaming: application-level load/delete over the L2 (§5.2).

The paper's driver machinery tracks textures "as the application loads and
deletes them" and §5.2 specifies how a deleted texture's page-table extent
is deallocated. The workloads here keep every texture loaded, so this
module supplies the missing dynamics: a driver policy that *deletes* a
texture after it has gone unused for a number of frames (releasing its
page-table extent and physical blocks) and re-loads it on next use.

This exercises the deallocation path under real traffic and quantifies the
trade-off: aggressive streaming frees L2 blocks sooner but pays re-download
(full-miss) cost when a texture returns to view — e.g. when the camera
swings back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.hierarchy import FrameCacheStats, MultiLevelTextureCache
from repro.trace.trace import Trace
from repro.trace.workingset import frame_unique, texture_ids

__all__ = ["StreamingFrameStats", "StreamingResult", "StreamingDriver"]


@dataclass
class StreamingFrameStats:
    """One frame's cache stats plus streaming actions."""

    cache: FrameCacheStats
    deleted_tids: list[int]
    blocks_released: int
    reloaded_tids: list[int]


@dataclass
class StreamingResult:
    """Whole-animation streaming outcome."""

    idle_frames: int
    frames: list[StreamingFrameStats]

    @property
    def total_deletes(self) -> int:
        """Textures deleted over the animation."""
        return sum(len(f.deleted_tids) for f in self.frames)

    @property
    def total_blocks_released(self) -> int:
        """Physical L2 blocks released by deallocation."""
        return sum(f.blocks_released for f in self.frames)

    @property
    def total_reloads(self) -> int:
        """Deleted textures re-loaded on return to view."""
        return sum(len(f.reloaded_tids) for f in self.frames)

    @property
    def mean_agp_bytes_per_frame(self) -> float:
        """Average host-download bytes per frame under streaming."""
        if not self.frames:
            return 0.0
        return float(np.mean([f.cache.agp_bytes for f in self.frames]))


class StreamingDriver:
    """Drives a hierarchy while deleting textures idle for ``idle_frames``.

    A texture untouched for more than ``idle_frames`` consecutive frames is
    deleted: its page-table extent is deallocated (§5.2) and its physical
    L2 blocks return to the free list. When the application uses it again
    the driver re-loads it — the texture's blocks are gone, so its first
    touches are full misses again.

    Requires the hierarchy to have an L2 (streaming is meaningless for the
    pull architecture, whose only state is the tiny L1).
    """

    def __init__(self, sim: MultiLevelTextureCache, idle_frames: int):
        if sim.l2 is None:
            raise ValueError("texture streaming drives the L2; configure one")
        if idle_frames < 1:
            raise ValueError(f"idle_frames must be >= 1, got {idle_frames}")
        self.sim = sim
        self.idle_frames = idle_frames
        self._last_used: dict[int, int] = {}
        self._deleted: set[int] = set()

    def run_trace(self, trace: Trace) -> StreamingResult:
        """Drive the hierarchy over a trace, streaming idle textures out."""
        frames: list[StreamingFrameStats] = []
        for fi, frame in enumerate(trace.frames):
            touched = frame_unique(frame, texture_ids).tolist()
            reloaded = [t for t in touched if t in self._deleted]
            for tid in reloaded:
                # Re-load: the extent is valid again (same tstart/tlen; the
                # driver re-registers the texture). Blocks are gone, so the
                # upcoming accesses full-miss — that is the streaming cost.
                self._deleted.discard(tid)
            for tid in touched:
                self._last_used[tid] = fi

            stats = self.sim.run_frame(frame)

            # Delete textures idle past the threshold.
            deleted: list[int] = []
            released = 0
            for tid, last in list(self._last_used.items()):
                if tid in self._deleted:
                    continue
                if fi - last >= self.idle_frames:
                    released += self.sim.l2.deallocate_texture(tid)
                    self._deleted.add(tid)
                    deleted.append(tid)

            frames.append(
                StreamingFrameStats(
                    cache=stats,
                    deleted_tids=deleted,
                    blocks_released=released,
                    reloaded_tids=reloaded,
                )
            )
        return StreamingResult(idle_frames=self.idle_frames, frames=frames)
