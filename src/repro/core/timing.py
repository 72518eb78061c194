"""Transaction-latency timing model (extending §5.4.2).

The paper stops at a relative model: the *fractional advantage* f of the L2
architecture's average cost per L1 miss. This module carries the same cost
structure into per-frame time estimates so architectures can be compared in
frames per second on a concrete (if simplified) machine model:

* every texel read costs ``l1_hit_cycles`` in the pipelined L1 (hits are
  fully pipelined; misses add a transaction cost on top);
* an L1 miss serviced by the pull architecture downloads a 64-byte tile
  from host memory: ``host_download_cycles`` (the paper's t3);
* an L2 **full hit** reads local accelerator DRAM at twice host speed:
  ``t3 / 2`` (the paper's 2x local-memory assumption, t2full);
* an L2 **partial hit** costs the same as a pull download (t2partial = t3);
* an L2 **full miss** costs ``c * t3`` with the paper's default c = 8
  (clock search + page-table read-modify-writes + the download);
* a **TLB miss** adds a page-table read from local DRAM on top.

Separately, host downloads occupy the AGP bus; a frame can never finish
faster than its AGP bytes at the configured bus bandwidth. Frame time is
the max of compute time and bus time — the "rate-limited by their ability
to retrieve texture from system memory" effect the paper cites for pull
hardware.

All of this is deliberately transaction-grained, like the paper's
simulator: it is a model for *comparing architectures*, not a cycle-level
GPU simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hierarchy import (
    FrameCacheStats,
    TraceRunResult,
    frames_to_columns,
)
from repro.texture.tiling import L1_BLOCK_BYTES

__all__ = [
    "TimingModel",
    "FrameTiming",
    "transaction_cycles",
    "frame_cycles",
    "estimate_frame_timings",
]


@dataclass(frozen=True)
class TimingModel:
    """Latency/bandwidth parameters of the modelled machine.

    Defaults sketch a 1998-class accelerator: 100 MHz core, ~20 cycles to
    pull a 64-byte tile over AGP from host DRAM, local SDRAM at twice host
    throughput, and AGP 1.0's 512 MB/s bus.
    """

    clock_hz: float = 100e6
    l1_hit_cycles: float = 1.0
    host_download_cycles: float = 20.0  # t3
    full_miss_cost_ratio: float = 8.0   # c, as in Table 7
    tlb_miss_penalty_cycles: float = 10.0
    agp_bytes_per_second: float = 512e6

    def __post_init__(self) -> None:
        if self.clock_hz <= 0 or self.agp_bytes_per_second <= 0:
            raise ValueError("clock and bus rates must be positive")
        if self.host_download_cycles < self.l1_hit_cycles:
            raise ValueError("a host download cannot be cheaper than an L1 hit")

    @property
    def l2_full_hit_cycles(self) -> float:
        """t2full = t3 / 2 (local memory at twice host performance)."""
        return self.host_download_cycles / 2.0

    @property
    def l2_partial_hit_cycles(self) -> float:
        """t2partial = t3 (sub-block still comes from host)."""
        return self.host_download_cycles

    @property
    def l2_full_miss_cycles(self) -> float:
        """t2miss = c * t3."""
        return self.full_miss_cost_ratio * self.host_download_cycles


@dataclass
class FrameTiming:
    """One frame's estimated texturing time."""

    compute_cycles: float
    agp_bytes: int
    compute_seconds: float
    bus_seconds: float

    @property
    def seconds(self) -> float:
        """Frame texturing time: the binding constraint wins."""
        return max(self.compute_seconds, self.bus_seconds)

    @property
    def bus_bound(self) -> bool:
        """True when AGP bandwidth, not computation, limits the frame."""
        return self.bus_seconds > self.compute_seconds


def transaction_cycles(
    texel_reads,
    l1_misses,
    l2_full_hits,
    l2_partial_hits,
    l2_full_misses,
    tlb_misses,
    has_l2: bool,
    model: TimingModel,
) -> np.ndarray:
    """Texturing cycles of transaction counts, elementwise over arrays.

    Every cost term of the model in one place: per frame of a run, or
    per frame and tenant of a multi-tenant run.
    """
    cycles = texel_reads * model.l1_hit_cycles
    if has_l2:
        cycles = cycles + l2_full_hits * model.l2_full_hit_cycles
        cycles = cycles + l2_partial_hits * model.l2_partial_hit_cycles
        cycles = cycles + l2_full_misses * model.l2_full_miss_cycles
    else:
        cycles = cycles + l1_misses * model.host_download_cycles
    return cycles + tlb_misses * model.tlb_miss_penalty_cycles


def frame_cycles(
    frames: list[FrameCacheStats], model: TimingModel
) -> np.ndarray:
    """Per-frame texturing cycles of a run's frame stats."""
    cols = frames_to_columns(frames)
    none = np.zeros(len(frames), dtype=np.int64)
    return transaction_cycles(
        cols["texel_reads"],
        cols["l1_misses"],
        cols.get("l2_full_hits", none),
        cols.get("l2_partial_hits", none),
        cols.get("l2_full_misses", none),
        cols["tlb_accesses"] - cols["tlb_hits"] if "tlb_hits" in cols else none,
        "l2_accesses" in cols,
        model,
    )


def estimate_frame_timings(
    result: TraceRunResult, model: TimingModel | None = None
) -> list[FrameTiming]:
    """Estimate per-frame texturing times for a hierarchy run."""
    model = model or TimingModel()
    timings = []
    for stats, cycles in zip(
        result.frames, frame_cycles(result.frames, model).tolist()
    ):
        # VT page streaming shares the AGP bus with demand-miss traffic.
        agp = stats.agp_bytes + stats.vt_stream_bytes
        timings.append(
            FrameTiming(
                compute_cycles=cycles,
                agp_bytes=agp,
                compute_seconds=cycles / model.clock_hz,
                bus_seconds=agp / model.agp_bytes_per_second,
            )
        )
    return timings


def mean_fps(timings: list[FrameTiming]) -> float:
    """Average achievable texturing frame rate over an animation."""
    if not timings:
        return 0.0
    total = sum(t.seconds for t in timings)
    return len(timings) / total if total > 0 else float("inf")


def bus_bound_fraction(timings: list[FrameTiming]) -> float:
    """Fraction of frames limited by the AGP bus rather than computation."""
    if not timings:
        return 0.0
    return sum(t.bus_bound for t in timings) / len(timings)


def sanity_check_against_fractional_advantage(
    pull: TraceRunResult,
    l2: TraceRunResult,
    model: TimingModel | None = None,
) -> tuple[float, float]:
    """Compare the timing model's speedup with the §5.4.2 closed form.

    Returns ``(timing_speedup, model_speedup)``: the ratio of pull to L2
    compute time from this module, and the A_pull / A_L2 ratio predicted by
    the paper's formula with the measured hit rates. The two views agree
    closely when the workloads' per-frame mix is stable — a good internal
    consistency check.
    """
    from repro.core.model import (
        average_access_time_l2,
        average_access_time_pull,
        fractional_advantage,
    )

    model = model or TimingModel()
    pull_cycles = sum(frame_cycles(pull.frames, model).tolist())
    l2_cycles = sum(frame_cycles(l2.frames, model).tolist())
    timing_speedup = pull_cycles / l2_cycles if l2_cycles else float("inf")

    t1 = model.l1_hit_cycles
    t3 = model.host_download_cycles
    f = fractional_advantage(
        l2.l2_full_hit_rate, l2.l2_partial_hit_rate, model.full_miss_cost_ratio
    )
    a_pull = average_access_time_pull(pull.l1_hit_rate, t1, t3)
    a_l2 = average_access_time_l2(l2.l1_hit_rate, f, t1, t3)
    return timing_speedup, a_pull / a_l2
