"""Fault-tolerant virtual texturing: demand paging with graceful fallback.

Ties the megatexture page space, the residency set, and the page
streamer into one per-frame engine:

1. **Feedback pass** — the frame's packed tile-reference stream is
   coarsened to first-touch-ordered unique visible pages
   (:func:`repro.raster.feedback.page_requests`); the hierarchy builds
   that list block by block and hands it to :meth:`run_frame`.
2. **Page-store scrub** — under a chaos policy with ``bitflip_rate``,
   resident unpinned pages are deterministically damaged; damaged pages
   are quarantined (dropped from residency) and refetched.
3. **Deadline pass** — in-flight requests age; those past
   ``timeout_frames`` are dropped as timed out.
4. **Request pass** — quarantine refetches, then visible non-resident
   pages, are enqueued up to ``max_in_flight`` (excess is deferred —
   backpressure, re-requested while still visible).
5. **Service pass** — the streamer spends at most ``frame_budget_us`` of
   simulated link time; completed pages enter residency (evicting LRU
   unpinned pages beyond ``max_resident_pages``).
6. **Fallback resolution** — every visible page still missing is
   transparently served by its finest resident ancestor MIP page
   (:func:`repro.texture.fallback.fallback_page`) and accounted as
   *degraded* with its MIP bias.

The invariant that makes this "fault-tolerant" rather than merely lossy:
**a frame never blocks**. Service time is budget-bounded, fallback always
lands on a pinned page, and every degradation is counted — so under 100%
first-attempt fetch faults plus injected stalls the stall counter stays
at zero while quality metrics quantify the penalty.

All inter-frame state — residency stamps, the in-flight queue, the fetch
RNG, and the frame counter the chaos scrub hashes — participates in
``snapshot_state()`` / ``restore_state()``, and the same (scalar) code
path serves both hierarchy engines, so checkpointed paged runs resume
bit-identically everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.reliability.chaos import ChaosPolicy
from repro.reliability.faults import FaultModel
from repro.reliability.transfer import TransferPolicy
from repro.texture.fallback import fallback_page
from repro.texture.tiling import L1_TILE_TEXELS, AddressSpace
from repro.vt.megatexture import MegaTexture
from repro.vt.residency import PageResidency
from repro.vt.shed import shed_page_requests
from repro.vt.streaming import PageStreamer

__all__ = [
    "VtConfig",
    "FrameVtStats",
    "VirtualTextureSystem",
    "FRAME_VT_INT_COLUMNS",
    "FRAME_VT_FLOAT_COLUMNS",
]


@dataclass(frozen=True)
class VtConfig:
    """Virtual-texturing configuration.

    Attributes:
        page_texels: page edge in texels (power of two >= 4).
        max_resident_pages: residency budget, pinned pages included.
        max_in_flight: in-flight fetch bound (backpressure threshold).
        frame_budget_us: simulated link time the streamer may spend per
            frame; the deadline that late pages miss.
        fetch_latency_us: base cost of one page transfer attempt.
        timeout_frames: frames an in-flight request may wait before it is
            dropped as timed out.
        fault_model: probabilistic drop/spike model for fetch attempts.
        policy: retry/backoff budget for failed fetch attempts.
        chaos: deterministic first-attempt kill/stall fates for fetches
            plus page-store bitflips (quarantine + refetch).
    """

    page_texels: int = 32
    max_resident_pages: int = 512
    max_in_flight: int = 32
    frame_budget_us: float = 2000.0
    fetch_latency_us: float = 20.0
    timeout_frames: int = 4
    fault_model: FaultModel | None = None
    policy: TransferPolicy = TransferPolicy()
    chaos: ChaosPolicy | None = None

    def __post_init__(self) -> None:
        if self.page_texels < L1_TILE_TEXELS or (
            self.page_texels & (self.page_texels - 1)
        ):
            raise ValueError(
                f"page_texels must be a power of two >= {L1_TILE_TEXELS}, "
                f"got {self.page_texels}"
            )
        if self.max_resident_pages < 1:
            raise ValueError(
                f"max_resident_pages must be >= 1, got {self.max_resident_pages}"
            )
        if self.max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.frame_budget_us < 0.0:
            raise ValueError(
                f"frame_budget_us must be >= 0, got {self.frame_budget_us}"
            )
        if self.fetch_latency_us <= 0.0:
            raise ValueError(
                f"fetch_latency_us must be > 0, got {self.fetch_latency_us}"
            )
        if self.timeout_frames < 1:
            raise ValueError(
                f"timeout_frames must be >= 1, got {self.timeout_frames}"
            )


#: Integer per-frame VT columns, in :class:`FrameVtStats` field order.
FRAME_VT_INT_COLUMNS = (
    "visible_pages",
    "requested_pages",
    "deferred",
    "completed_fetches",
    "fetched_bytes",
    "failed_attempts",
    "failed_fetches",
    "timed_out",
    "quarantined",
    "degraded_pages",
    "evictions",
    "latency_spikes",
    "stalls",
    "in_flight",
    "resident_pages",
)

#: Float per-frame VT columns.
FRAME_VT_FLOAT_COLUMNS = ("mip_bias_sum", "service_us", "backoff_us")


@dataclass
class FrameVtStats:
    """One frame's virtual-texturing outcome."""

    visible_pages: int = 0
    requested_pages: int = 0
    deferred: int = 0
    completed_fetches: int = 0
    fetched_bytes: int = 0
    failed_attempts: int = 0
    failed_fetches: int = 0
    timed_out: int = 0
    quarantined: int = 0
    degraded_pages: int = 0
    evictions: int = 0
    latency_spikes: int = 0
    stalls: int = 0
    in_flight: int = 0
    resident_pages: int = 0
    mip_bias_sum: float = 0.0
    service_us: float = 0.0
    backoff_us: float = 0.0

    @property
    def degraded(self) -> bool:
        """Whether any visible page fell back to a coarser MIP level."""
        return self.degraded_pages > 0

    @property
    def mean_mip_bias(self) -> float:
        """Average MIP bias over this frame's degraded pages."""
        if self.degraded_pages == 0:
            return 0.0
        return self.mip_bias_sum / self.degraded_pages


class VirtualTextureSystem:
    """Stateful per-frame VT engine over one workload's address space."""

    def __init__(self, config: VtConfig, space: AddressSpace):
        self.config = config
        self.mega = MegaTexture(space, config.page_texels)
        self.residency = PageResidency(
            config.max_resident_pages, self.mega.coarsest_pages()
        )
        self.streamer = PageStreamer(
            config.policy,
            fetch_latency_us=config.fetch_latency_us,
            fault_model=config.fault_model,
            chaos=config.chaos,
        )
        self._frame = 0

    # ------------------------------------------------------------------
    def run_frame(self, pages: np.ndarray, shed_bias: int = 0) -> FrameVtStats:
        """Page one frame; never blocks, always returns complete stats.

        ``pages`` are the frame's visible pages in first-touch order
        (:func:`repro.raster.feedback.page_requests`). ``shed_bias`` is the load shedder's quality knob: a positive bias
        requests every visible page ``shed_bias`` MIP levels coarser
        (:func:`repro.vt.shed.shed_page_requests`), collapsing the page
        set and its streaming traffic. Biased frames are accounted as
        degraded — every visible page carries the shed bias on top of any
        fallback bias — so shedding is never silent.
        """
        config = self.config
        stats = FrameVtStats()
        pages = [
            int(p) for p in shed_page_requests(self.mega, pages, shed_bias)
        ]
        stats.visible_pages = len(pages)
        if shed_bias > 0:
            stats.degraded_pages += len(pages)
            stats.mip_bias_sum += shed_bias * len(pages)

        for page in pages:
            self.residency.touch(page)

        # Page-store scrub: chaos bitflips damage resident unpinned pages;
        # damaged pages are quarantined and go back through the streamer.
        refetch: list[int] = []
        chaos = config.chaos
        if chaos is not None and chaos.bitflip_rate > 0.0:
            for page in self.residency.unpinned_pages():
                if chaos.decide_bitflip(f"pagestore:{page}|f{self._frame}"):
                    self.residency.drop(page)
                    refetch.append(page)
                    stats.quarantined += 1

        stats.timed_out = self.streamer.age_and_expire(config.timeout_frames)

        in_flight = self.streamer.pages()
        refetch_set = set(refetch)
        wanted = refetch + [
            page
            for page in pages
            if page not in self.residency
            and page not in in_flight
            and page not in refetch_set
        ]
        accepted, deferred = self.streamer.enqueue(wanted, config.max_in_flight)
        stats.requested_pages = accepted
        stats.deferred = deferred

        completed = self.streamer.service(config.frame_budget_us, stats)
        for page in completed:
            stats.evictions += len(self.residency.insert(page))
        stats.completed_fetches = len(completed)
        stats.fetched_bytes = len(completed) * self.mega.page_bytes

        # Fallback resolution: missing visible pages sample their finest
        # resident ancestor instead of stalling.
        for page in pages:
            if page not in self.residency:
                _, bias = fallback_page(self.mega, self.residency, page)
                stats.degraded_pages += 1
                stats.mip_bias_sum += bias

        stats.in_flight = len(self.streamer)
        stats.resident_pages = len(self.residency)
        self._frame += 1
        return stats

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Capture residency, in-flight queue, RNG, and frame counter."""
        return {
            "frame": self._frame,
            "residency": self.residency.snapshot_state(),
            "streamer": self.streamer.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` tree; inverse of the snapshot."""
        self._frame = int(state["frame"])
        self.residency.restore_state(state["residency"])
        self.streamer.restore_state(state["streamer"])
