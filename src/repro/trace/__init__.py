"""Trace machinery: the paper's "tracing library" (§3.2).

The instrumented pipeline emits, per frame, the ordered stream of 4x4-texel
tile references rasterization touched. This package collapses those streams
(run-length, with exact texel-read weights), holds them as :class:`Trace`
objects, persists them to disk, and computes the §4 locality and working-set
statistics over them.
"""

from repro.trace.events import collapse_runs
from repro.trace.trace import FrameTrace, Trace, TraceMeta
from repro.trace.stream import (
    StreamTraceWriter,
    StreamingTrace,
    save_stream,
    open_trace,
)
from repro.trace.stats import WorkloadStats, workload_stats, frame_depth_complexity
from repro.trace.workingset import (
    per_frame_unique_blocks,
    per_frame_new_blocks,
    l2_memory_curve,
    push_memory_curve,
    texture_memory_curve,
    total_and_new_memory,
)
from repro.trace.bandwidth import min_l1_bandwidth_curves
from repro.trace.locality import (
    LocalityBreakdown,
    classify_locality,
    locality_fractions,
)

__all__ = [
    "collapse_runs",
    "FrameTrace",
    "Trace",
    "TraceMeta",
    "StreamTraceWriter",
    "StreamingTrace",
    "save_stream",
    "open_trace",
    "WorkloadStats",
    "workload_stats",
    "frame_depth_complexity",
    "per_frame_unique_blocks",
    "per_frame_new_blocks",
    "l2_memory_curve",
    "push_memory_curve",
    "texture_memory_curve",
    "total_and_new_memory",
    "min_l1_bandwidth_curves",
    "LocalityBreakdown",
    "classify_locality",
    "locality_fractions",
]
