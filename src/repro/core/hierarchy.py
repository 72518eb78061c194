"""Figure 7 control flow: the multi-level cache hierarchy simulator.

Couples the L1 cache, the L2 texture cache, and the page-table TLB into the
paper's "transaction-accurate (but not cycle-accurate) simulator" (§3.3).
Per frame: the collapsed tile-reference stream runs through L1; the L1 miss
stream is translated to page-table indices (consulting the TLB) and runs
through the L2; byte counts fall out of the transaction counts.

The frame passes set index → L1 → L2 translation → TLB → L2 in the
consecutive blocks of :meth:`FrameTrace.blocks` (at most
:data:`FRAME_BLOCK` refs each, and cut at every chunk edge of a streamed
frame, which therefore is never copied), and the per-block partials fold
into the frame's stats (DESIGN §8.4). Every stage carries its state
across calls and is invariant to how its stream is chunked, so blocking
is exact; it keeps each per-ref temporary cache-sized at paper resolution.
A multi-tenant run attributes each block to its tenants and feeds each
run of one tenant's L1 misses to that tenant's TLB and L2. VT's feedback
pass collects each block's visible pages; the fault link and the VT
engine then run once per frame, on the frame's totals and its pages in
first-touch order.

Without an L2, the same machinery models the pull architecture: every L1
miss is a 64-byte download over AGP.

When a :class:`~repro.reliability.FaultModel` is configured, every host
block download additionally passes through a seeded faulty-link simulator
with a retry/backoff :class:`~repro.reliability.TransferPolicy`; per-frame
degradation metrics (retried transfers, retry bytes, stale blocks) ride
along in :class:`FrameCacheStats`. The fault-free accounting is untouched,
so a zero-rate model reproduces baseline numbers exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from repro.core.l1_cache import L1CacheConfig, L1CacheSim
from repro.core.l2_cache import L2CacheConfig, L2FrameResult, L2TextureCache
from repro.core.tlb import TextureTableTLB, TLBFrameResult
from repro.raster.feedback import first_touch, page_requests
from repro.reliability.faults import FaultModel
from repro.reliability.transfer import (
    AgpTransferLink,
    FrameTransferStats,
    TransferPolicy,
)
from repro.tenancy.address import tenant_of_refs
from repro.tenancy.partition import PartitionedL2, PartitionedTLB, TenancyConfig
from repro.tenancy.stats import FRAME_TENANT_COLUMNS, TenantFrameStats
from repro.texture.tiling import AddressSpace, L1_BLOCK_BYTES
from repro.trace.trace import FrameTrace, Trace
from repro.vt.system import (
    FRAME_VT_FLOAT_COLUMNS,
    FRAME_VT_INT_COLUMNS,
    FrameVtStats,
    VirtualTextureSystem,
    VtConfig,
)

__all__ = [
    "HierarchyConfig",
    "FrameCacheStats",
    "TraceRunResult",
    "MultiLevelTextureCache",
    "FRAME_INT_COLUMNS",
    "FRAME_L2_COLUMNS",
    "FRAME_TLB_COLUMNS",
    "FRAME_TRANSFER_INT_COLUMNS",
    "FRAME_TENANT_COLUMNS",
    "frames_to_columns",
    "frames_from_columns",
]

#: Engine token every hierarchy snapshot and checkpoint run key carries.
#: One engine is left; the token stays so checkpoints written before the
#: per-access loops moved into the test oracle still resume.
ENGINE = "batched"

#: Most refs per block of :meth:`MultiLevelTextureCache.run_frame`: 512 KB
#: per int64 temporary, so a block's temporaries stay in a per-core L2
#: (DESIGN §8.4).
FRAME_BLOCK = 1 << 16


@dataclass(frozen=True)
class HierarchyConfig:
    """Configuration of the full hierarchy.

    ``l2`` may be None (pull architecture: L1 only). ``tlb_entries`` may be
    None to skip TLB modelling; it requires an L2 (the TLB caches the L2's
    page table).
    """

    l1: L1CacheConfig
    l2: L2CacheConfig | None = None
    tlb_entries: int | None = None
    tlb_policy: str = "round_robin"
    fault_model: FaultModel | None = None
    transfer_policy: TransferPolicy | None = None
    vt: VtConfig | None = None
    tenancy: TenancyConfig | None = None

    def __post_init__(self) -> None:
        if self.tlb_entries is not None and self.l2 is None:
            raise ValueError("a TLB models the L2 page table; configure an L2")
        if self.transfer_policy is not None and self.fault_model is None:
            raise ValueError("a transfer policy needs a fault model to react to")
        if self.tenancy is not None:
            if self.vt is not None:
                raise ValueError(
                    "virtual texturing and multi-tenancy cannot be combined"
                )
            if self.tenancy.policy != "none" and self.l2 is None:
                raise ValueError(
                    f"the {self.tenancy.policy!r} tenancy policy partitions "
                    "the L2; configure an L2"
                )
            if self.tenancy.policy in ("static", "utility") and sum(
                self.tenancy.quotas
            ) > self.l2.n_blocks:
                raise ValueError(
                    f"tenant block quotas {self.tenancy.quotas} exceed the "
                    f"L2's {self.l2.n_blocks} blocks"
                )
            if (
                self.tenancy.policy == "way"
                and self.l2.n_blocks % self.tenancy.ways
            ):
                raise ValueError(
                    f"total ways ({self.tenancy.ways}) must divide the L2 "
                    f"block count ({self.l2.n_blocks})"
                )
            if self.tenancy.tlb_quotas is not None:
                if self.tlb_entries is None:
                    raise ValueError(
                        "tlb_quotas partition the TLB; configure tlb_entries"
                    )
                if sum(self.tenancy.tlb_quotas) > self.tlb_entries:
                    raise ValueError(
                        f"tenant TLB quotas {self.tenancy.tlb_quotas} exceed "
                        f"the {self.tlb_entries} TLB entries"
                    )


@dataclass
class FrameCacheStats:
    """One frame's transaction counts through the hierarchy."""

    texel_reads: int
    l1_accesses: int
    l1_misses: int
    l2: L2FrameResult | None = None
    tlb: TLBFrameResult | None = None
    transfer: FrameTransferStats | None = None
    vt: FrameVtStats | None = None
    tenants: TenantFrameStats | None = None

    @classmethod
    def merge(cls, parts) -> FrameCacheStats:
        """Sum several partial stats of one logical stream into one total.

        The hierarchy uses this to fold per-block partials into
        whole-frame stats; the simulation is chunking-invariant, so
        merged partials equal single-call stats exactly.
        Every optional sub-result must be present in either all parts or
        none — merging heterogeneous stats would silently drop counts.
        Gauge-like fields (e.g. VT in-flight) are summed too, which is
        only meaningful for partials of a *single* frame.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("nothing to merge")

        def _merged_sub(name, ctor):
            subs = [getattr(p, name) for p in parts]
            present = [s for s in subs if s is not None]
            if not present:
                return None
            if len(present) != len(subs):
                raise ValueError(
                    f"cannot merge: {name!r} present in only some parts"
                )
            return ctor(
                **{
                    f.name: sum(getattr(s, f.name) for s in present)
                    for f in dataclass_fields(ctor)
                }
            )

        merged = cls(
            texel_reads=sum(p.texel_reads for p in parts),
            l1_accesses=sum(p.l1_accesses for p in parts),
            l1_misses=sum(p.l1_misses for p in parts),
            l2=_merged_sub("l2", L2FrameResult),
            tlb=_merged_sub("tlb", TLBFrameResult),
            transfer=_merged_sub("transfer", FrameTransferStats),
            vt=_merged_sub("vt", FrameVtStats),
        )
        tenant_subs = [p.tenants for p in parts]
        present = [s for s in tenant_subs if s is not None]
        if present:
            if len(present) != len(tenant_subs):
                raise ValueError(
                    "cannot merge: 'tenants' present in only some parts"
                )
            merged.tenants = TenantFrameStats.sum(present)
        return merged

    @property
    def l1_hit_rate(self) -> float:
        """Texel-level L1 hit rate (collapsed repeats are hits)."""
        if self.texel_reads == 0:
            return 1.0
        return 1.0 - self.l1_misses / self.texel_reads

    @property
    def agp_bytes(self) -> int:
        """Host-to-accelerator download bytes this frame.

        With an L2, only partial hits and full misses reach the host; in the
        pull architecture every L1 miss does.
        """
        if self.l2 is not None:
            return self.l2.agp_bytes
        return self.l1_misses * L1_BLOCK_BYTES

    @property
    def local_l2_bytes(self) -> int:
        """Traffic absorbed by local L2 cache memory this frame."""
        return self.l2.local_bytes if self.l2 is not None else 0

    @property
    def retry_bytes(self) -> int:
        """Extra AGP bytes spent re-transferring failed blocks this frame."""
        return self.transfer.retry_bytes if self.transfer is not None else 0

    @property
    def effective_agp_bytes(self) -> int:
        """Fault-free download bytes plus retry traffic."""
        return self.agp_bytes + self.retry_bytes

    @property
    def stale_blocks(self) -> int:
        """Blocks never delivered this frame (degraded-mode fallback)."""
        return self.transfer.stale_blocks if self.transfer is not None else 0

    @property
    def vt_stream_bytes(self) -> int:
        """Virtual-texture page bytes streamed over the link this frame."""
        return self.vt.fetched_bytes if self.vt is not None else 0


@dataclass
class TraceRunResult:
    """A whole animation's simulation outcome plus aggregates."""

    config: HierarchyConfig
    frames: list[FrameCacheStats]

    # ------------------------------------------------------------------
    # Per-frame curves (for the figures)
    # ------------------------------------------------------------------
    def agp_bytes_per_frame(self) -> np.ndarray:
        """Per-frame host-download bytes (Fig 10 curves)."""
        return np.array([f.agp_bytes for f in self.frames], dtype=np.int64)

    def l1_miss_rate_per_frame(self) -> np.ndarray:
        """Per-frame texel-level L1 miss rate (Fig 9 curves)."""
        return np.array([1.0 - f.l1_hit_rate for f in self.frames])

    def tlb_hit_rate_per_frame(self) -> np.ndarray:
        """Per-frame TLB hit rate, NaN without a TLB (Fig 11 curves)."""
        return np.array(
            [f.tlb.hit_rate if f.tlb is not None else np.nan for f in self.frames]
        )

    # ------------------------------------------------------------------
    # Aggregates (for the tables)
    # ------------------------------------------------------------------
    @property
    def total_texel_reads(self) -> int:
        """Texel reads over the whole animation."""
        return sum(f.texel_reads for f in self.frames)

    @property
    def total_l1_misses(self) -> int:
        """L1 misses over the whole animation."""
        return sum(f.l1_misses for f in self.frames)

    @property
    def l1_hit_rate(self) -> float:
        """Aggregate texel-weighted L1 hit rate (Table 2 / Table 5)."""
        reads = self.total_texel_reads
        return 1.0 - self.total_l1_misses / reads if reads else 1.0

    @property
    def l2_full_hit_rate(self) -> float:
        """L2 full-hit rate conditional on an L1 miss (Table 6)."""
        misses = self.total_l1_misses
        if not misses or self.config.l2 is None:
            return 0.0
        return sum(f.l2.full_hits for f in self.frames) / misses

    @property
    def l2_partial_hit_rate(self) -> float:
        """L2 partial-hit rate conditional on an L1 miss (Table 6)."""
        misses = self.total_l1_misses
        if not misses or self.config.l2 is None:
            return 0.0
        return sum(f.l2.partial_hits for f in self.frames) / misses

    @property
    def tlb_hit_rate(self) -> float:
        """Aggregate TLB hit rate over all L1 misses (Table 8)."""
        accesses = sum(f.tlb.accesses for f in self.frames if f.tlb is not None)
        hits = sum(f.tlb.hits for f in self.frames if f.tlb is not None)
        return hits / accesses if accesses else 0.0

    @property
    def mean_agp_bytes_per_frame(self) -> float:
        """Average AGP/system-memory bandwidth in bytes/frame (Table 3)."""
        if not self.frames:
            return 0.0
        return float(np.mean(self.agp_bytes_per_frame()))

    # ------------------------------------------------------------------
    # Degradation aggregates (fault-injected runs; all zero otherwise)
    # ------------------------------------------------------------------
    @property
    def total_retried_transfers(self) -> int:
        """Block re-transfers issued over the whole animation."""
        return sum(
            f.transfer.retried_transfers
            for f in self.frames
            if f.transfer is not None
        )

    @property
    def total_retry_bytes(self) -> int:
        """AGP bytes spent on re-transfers over the whole animation."""
        return sum(f.retry_bytes for f in self.frames)

    @property
    def total_stale_blocks(self) -> int:
        """Blocks that were never delivered (frames fell back to stale data)."""
        return sum(f.stale_blocks for f in self.frames)

    @property
    def degraded_frames(self) -> int:
        """Frames completed with at least one stale block."""
        return sum(
            1 for f in self.frames if f.transfer is not None and f.transfer.degraded
        )

    @property
    def mean_effective_agp_bytes_per_frame(self) -> float:
        """Mean download bytes/frame including retry traffic."""
        if not self.frames:
            return 0.0
        return float(np.mean([f.effective_agp_bytes for f in self.frames]))

    # ------------------------------------------------------------------
    # Virtual-texturing aggregates (paged runs; all zero/ideal otherwise)
    # ------------------------------------------------------------------
    @property
    def total_page_fetches(self) -> int:
        """VT pages streamed in over the whole animation."""
        return sum(f.vt.completed_fetches for f in self.frames if f.vt is not None)

    @property
    def total_vt_fetched_bytes(self) -> int:
        """VT page bytes streamed over the whole animation."""
        return sum(f.vt_stream_bytes for f in self.frames)

    @property
    def total_pages_degraded(self) -> int:
        """Visible pages served by a coarser ancestor over the animation."""
        return sum(f.vt.degraded_pages for f in self.frames if f.vt is not None)

    @property
    def total_vt_timeouts(self) -> int:
        """VT fetches dropped past their deadline over the animation."""
        return sum(f.vt.timed_out for f in self.frames if f.vt is not None)

    @property
    def total_vt_deferred(self) -> int:
        """VT requests deferred by in-flight backpressure over the animation."""
        return sum(f.vt.deferred for f in self.frames if f.vt is not None)

    @property
    def total_vt_failed_fetches(self) -> int:
        """VT fetches that exhausted their retry budget over the animation."""
        return sum(f.vt.failed_fetches for f in self.frames if f.vt is not None)

    @property
    def total_page_quarantines(self) -> int:
        """Resident pages quarantined after page-store damage."""
        return sum(f.vt.quarantined for f in self.frames if f.vt is not None)

    @property
    def vt_degraded_frames(self) -> int:
        """Frames that sampled at least one fallback (coarser) page."""
        return sum(1 for f in self.frames if f.vt is not None and f.vt.degraded)

    @property
    def vt_mean_mip_bias(self) -> float:
        """Mean MIP bias over all degraded page samples (0 when none)."""
        degraded = self.total_pages_degraded
        if degraded == 0:
            return 0.0
        bias = sum(f.vt.mip_bias_sum for f in self.frames if f.vt is not None)
        return bias / degraded

    @property
    def stall_free_rate(self) -> float:
        """Fraction of frames completed without a texturing stall.

        The VT engine never blocks by construction, so this is 1.0 unless
        a future change introduces a genuinely blocking path — the metric
        exists so the experiments can *assert* grace rather than assume it.
        """
        if not self.frames:
            return 1.0
        stalled = sum(1 for f in self.frames if f.vt is not None and f.vt.stalls > 0)
        return 1.0 - stalled / len(self.frames)


# ----------------------------------------------------------------------
# Columnar frame-stats (de)serialization, shared by the persistent
# simulation store and the checkpoint format.
# ----------------------------------------------------------------------
FRAME_INT_COLUMNS = ("texel_reads", "l1_accesses", "l1_misses")
FRAME_L2_COLUMNS = ("accesses", "full_hits", "partial_hits", "full_misses", "evictions")
FRAME_TLB_COLUMNS = ("accesses", "hits")
FRAME_TRANSFER_INT_COLUMNS = (
    "requested_blocks",
    "retried_transfers",
    "retry_bytes",
    "stale_blocks",
    "latency_spikes",
)


def frames_to_columns(frames: list[FrameCacheStats]) -> dict[str, np.ndarray]:
    """Pack per-frame stats into int64/float64 columns (one array per field)."""
    payload: dict[str, np.ndarray] = {}
    for name in FRAME_INT_COLUMNS:
        payload[name] = np.array([getattr(f, name) for f in frames], dtype=np.int64)
    if frames and frames[0].l2 is not None:
        for name in FRAME_L2_COLUMNS:
            payload[f"l2_{name}"] = np.array(
                [getattr(f.l2, name) for f in frames], dtype=np.int64
            )
    if frames and frames[0].tlb is not None:
        for name in FRAME_TLB_COLUMNS:
            payload[f"tlb_{name}"] = np.array(
                [getattr(f.tlb, name) for f in frames], dtype=np.int64
            )
    if frames and frames[0].transfer is not None:
        for name in FRAME_TRANSFER_INT_COLUMNS:
            payload[f"transfer_{name}"] = np.array(
                [getattr(f.transfer, name) for f in frames], dtype=np.int64
            )
        payload["transfer_backoff_us"] = np.array(
            [f.transfer.backoff_us for f in frames], dtype=np.float64
        )
    if frames and frames[0].vt is not None:
        for name in FRAME_VT_INT_COLUMNS:
            payload[f"vt_{name}"] = np.array(
                [getattr(f.vt, name) for f in frames], dtype=np.int64
            )
        for name in FRAME_VT_FLOAT_COLUMNS:
            payload[f"vt_{name}"] = np.array(
                [getattr(f.vt, name) for f in frames], dtype=np.float64
            )
    if frames and frames[0].tenants is not None:
        # 2-D columns: (n_frames, n_tenants) per field.
        for name in FRAME_TENANT_COLUMNS:
            payload[f"tenant_{name}"] = np.stack(
                [getattr(f.tenants, name) for f in frames]
            ).astype(np.int64)
    return payload


def frames_from_columns(
    arrays: dict[str, np.ndarray], n_frames: int
) -> list[FrameCacheStats]:
    """Rebuild per-frame stats from :func:`frames_to_columns` output."""
    has_l2 = "l2_accesses" in arrays
    has_tlb = "tlb_accesses" in arrays
    has_transfer = "transfer_requested_blocks" in arrays
    has_vt = "vt_visible_pages" in arrays
    has_tenants = "tenant_texel_reads" in arrays
    frames: list[FrameCacheStats] = []
    for i in range(n_frames):
        stats = FrameCacheStats(
            *(int(arrays[name][i]) for name in FRAME_INT_COLUMNS)
        )
        if has_l2:
            stats.l2 = L2FrameResult(
                *(int(arrays[f"l2_{name}"][i]) for name in FRAME_L2_COLUMNS)
            )
        if has_tlb:
            stats.tlb = TLBFrameResult(
                *(int(arrays[f"tlb_{name}"][i]) for name in FRAME_TLB_COLUMNS)
            )
        if has_transfer:
            stats.transfer = FrameTransferStats(
                *(
                    int(arrays[f"transfer_{name}"][i])
                    for name in FRAME_TRANSFER_INT_COLUMNS
                ),
                backoff_us=float(arrays["transfer_backoff_us"][i]),
            )
        if has_vt:
            stats.vt = FrameVtStats(
                **{
                    name: int(arrays[f"vt_{name}"][i])
                    for name in FRAME_VT_INT_COLUMNS
                },
                **{
                    name: float(arrays[f"vt_{name}"][i])
                    for name in FRAME_VT_FLOAT_COLUMNS
                },
            )
        if has_tenants:
            stats.tenants = TenantFrameStats(
                **{
                    name: np.asarray(
                        arrays[f"tenant_{name}"][i], dtype=np.int64
                    )
                    for name in FRAME_TENANT_COLUMNS
                }
            )
        frames.append(stats)
    return frames


class MultiLevelTextureCache:
    """Stateful hierarchy simulator over one workload's address space."""

    def __init__(self, config: HierarchyConfig, space: AddressSpace):
        self.config = config
        self.space = space
        self.tenancy = config.tenancy
        if self.tenancy is not None:
            if self.tenancy.tid_bases[-1] >= space.texture_count:
                raise ValueError(
                    f"tenancy tid_bases {self.tenancy.tid_bases} lie outside "
                    f"the address space ({space.texture_count} textures)"
                )
            self._tid_bases = np.asarray(self.tenancy.tid_bases, dtype=np.int64)
        self.l1 = L1CacheSim(config.l1)
        if config.l2 is None:
            self.l2 = None
        elif self.tenancy is not None and self.tenancy.policy != "none":
            self.l2 = PartitionedL2(config.l2, space, self.tenancy)
        else:
            self.l2 = L2TextureCache(config.l2, space)
        if config.tlb_entries is None:
            self.tlb = None
        elif self.tenancy is not None and self.tenancy.tlb_quotas is not None:
            self.tlb = PartitionedTLB(
                config.tlb_entries, config.tlb_policy, self.tenancy
            )
        else:
            self.tlb = TextureTableTLB(config.tlb_entries, config.tlb_policy)
        self.link = (
            AgpTransferLink(config.fault_model, config.transfer_policy)
            if config.fault_model is not None and config.fault_model.active
            else None
        )
        self.vt = (
            VirtualTextureSystem(config.vt, space)
            if config.vt is not None
            else None
        )

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Capture all inter-frame state for frame-granular checkpointing.

        Covers every component that carries state across frames — L1, L2
        (page table, BRL, allocator, replacement policy), TLB, and the
        faulty-link random stream — so restoring at a frame boundary and
        continuing is bit-identical to never having stopped.
        """
        state: dict = {"engine": ENGINE, "l1": self.l1.snapshot_state()}
        if self.l2 is not None:
            state["l2"] = self.l2.snapshot_state()
        if self.tlb is not None:
            state["tlb"] = self.tlb.snapshot_state()
        if self.link is not None:
            state["link"] = self.link.snapshot_state()
        if self.vt is not None:
            state["vt"] = self.vt.snapshot_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` tree; inverse of the snapshot."""
        if state.get("engine") != ENGINE:
            raise ValueError(
                f"checkpoint was taken on the {state.get('engine')!r} engine "
                f"but this simulator runs {ENGINE!r}"
            )
        for name, component in (
            ("l2", self.l2),
            ("tlb", self.tlb),
            ("link", self.link),
            ("vt", self.vt),
        ):
            if (component is not None) != (name in state):
                raise ValueError(
                    f"checkpoint does not match the configuration: "
                    f"{name!r} state is "
                    f"{'missing' if component is not None else 'unexpected'}"
                )
        self.l1.restore_state(state["l1"])
        if self.l2 is not None:
            self.l2.restore_state(state["l2"])
        if self.tlb is not None:
            self.tlb.restore_state(state["tlb"])
        if self.link is not None:
            self.link.restore_state(state["link"])
        if self.vt is not None:
            self.vt.restore_state(state["vt"])

    def run_frame(self, frame: FrameTrace) -> FrameCacheStats:
        """Simulate one frame (Fig 7 steps A-F), in blocks of
        :data:`FRAME_BLOCK` refs up to the L2 (see the module docstring)."""
        n_sets = self.config.l1.n_sets
        parts = []
        pages = []
        # An empty frame still yields one (empty) block.
        for refs, weights in frame.blocks(FRAME_BLOCK):
            sets = self.space.l1_set_indices(refs, n_sets)
            l1_res = self.l1.access_frame(refs, weights, sets)
            part = FrameCacheStats(
                texel_reads=l1_res.texel_reads,
                l1_accesses=l1_res.accesses,
                l1_misses=l1_res.misses,
            )
            # Runs (tenant, start, stop) of the L1 miss stream; untenanted,
            # the whole stream is one run of no tenant.
            if self.tenancy is None:
                runs, n_rows = [(None, 0, l1_res.misses)], 1
            else:
                tenant_l1, runs = self._attribute(refs, weights, l1_res.miss_refs)
                n_rows = self.tenancy.n_tenants
            # One row per tenant (or the untenanted run).
            l2_acc = np.zeros((n_rows, len(FRAME_L2_COLUMNS)), dtype=np.int64)
            tlb_acc = np.zeros((n_rows, len(FRAME_TLB_COLUMNS)), dtype=np.int64)
            if self.l2 is not None:
                l2_tile = self.config.l2.l2_tile_texels
                gids, subs = self.space.l2_addresses(l1_res.miss_refs, l2_tile)
                for t, s, e in runs:
                    l2, tlb = self._levels(t)
                    if tlb is not None:
                        tlb_res = tlb.access_frame(gids[s:e])
                        tlb_acc[t or 0] += [
                            getattr(tlb_res, c) for c in FRAME_TLB_COLUMNS
                        ]
                    l2_res = l2.access_blocks(gids[s:e], subs[s:e])
                    l2_acc[t or 0] += [getattr(l2_res, c) for c in FRAME_L2_COLUMNS]
                part.l2 = L2FrameResult(*l2_acc.sum(axis=0).tolist())
                if self.tlb is not None:
                    part.tlb = TLBFrameResult(*tlb_acc.sum(axis=0).tolist())
            if self.tenancy is not None:
                part.tenants = TenantFrameStats(*tenant_l1, *l2_acc.T, *tlb_acc.T)
            if self.vt is not None:
                pages.append(page_requests(refs, self.vt.mega.page_texels))
            parts.append(part)
        stats = FrameCacheStats.merge(parts)
        if self.link is not None:
            # Every host download this frame crosses the faulty AGP link:
            # with an L2 only partial hits + full misses, otherwise every
            # L1 miss (the pull architecture).
            n_blocks = (
                stats.l2.host_downloads if stats.l2 is not None else stats.l1_misses
            )
            stats.transfer = self.link.transfer_frame(n_blocks)
        if self.vt is not None:
            # The feedback pass: blocks arrive in stream order, so the
            # first touches over their page lists are the frame's. The VT
            # engine pages against them and never blocks.
            stats.vt = self.vt.run_frame(first_touch(np.concatenate(pages)))
        return stats

    def _attribute(self, refs, weights, miss_refs):
        """One block's per-tenant L1 counts and its L1 miss stream's runs.

        The L1 is shared and tenant-oblivious; its misses are split into
        runs ``(tenant, start, stop)`` of equal tenant, each fed to that
        tenant's TLB and L2. Both batched engines are invariant to call
        chunking, so run-wise simulation is bit-identical to one call while
        attributing every transaction to its tenant.
        """
        n = self.tenancy.n_tenants
        tenant_of = tenant_of_refs(refs, self._tid_bases)
        miss_tenant = tenant_of_refs(miss_refs, self._tid_bases)
        counts = (
            np.bincount(tenant_of, weights=weights, minlength=n).astype(np.int64),
            np.bincount(tenant_of, minlength=n),
            np.bincount(miss_tenant, minlength=n),
        )
        starts = (np.flatnonzero(np.diff(miss_tenant)) + 1).tolist()
        cuts = [0, *starts, len(miss_refs)]
        runs = [
            (int(miss_tenant[s]), s, e) for s, e in zip(cuts, cuts[1:]) if s < e
        ]
        return counts, runs

    def _levels(self, tenant: int | None):
        """The L2 and TLB serving ``tenant`` (None: an untenanted run).

        Looked up on every call rather than captured at construction, so
        a level swapped in afterwards (the test oracle swaps them all) is
        the one that runs.
        """
        l2, tlb = self.l2, self.tlb
        if tenant is not None:
            if self.tenancy.policy != "none":
                l2 = l2.parts[tenant]
            if self.tenancy.tlb_quotas is not None:
                tlb = tlb.parts[tenant]
        return l2, tlb

    def run_trace(
        self,
        trace: Trace,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 0,
        resume: bool = False,
    ) -> TraceRunResult:
        """Simulate a whole animation, carrying cache state across frames.

        ``trace`` may hold its frames in RAM or build them on access (a
        mmap-backed :class:`~repro.trace.stream.StreamingTrace`, a lazy
        tenant merge): frames are consumed strictly one at a time by
        index, so an out-of-core trace is simulated in bounded memory.

        With ``checkpoint_path`` and ``checkpoint_every > 0``, the full
        simulator state plus all completed frame stats are persisted
        (atomically, CRC-checked) every N frames; ``resume=True`` restores
        the latest checkpoint first — bound to this exact (trace, config)
        — and continues from it, bit-identically to an
        uninterrupted run. A missing checkpoint under ``resume`` simply
        starts from scratch; a corrupt one is quarantined with a
        :class:`~repro.errors.CorruptCheckpointWarning`.
        """
        if checkpoint_path is None:
            frames = [self.run_frame(f) for f in trace.frames]
            return TraceRunResult(config=self.config, frames=frames)

        from repro.reliability import checkpoint as ckpt

        key = ckpt.run_key(trace, self.config)
        frames = []
        start = 0
        if resume:
            loaded = ckpt.load_checkpoint(checkpoint_path, expected_key=key)
            if loaded is not None:
                frames = loaded.frames
                start = loaded.frame_index
                self.restore_state(loaded.state)
        total = len(trace.frames)
        for i in range(start, total):
            frames.append(self.run_frame(trace.frames[i]))
            done = i + 1
            if checkpoint_every > 0 and done % checkpoint_every == 0 and done < total:
                ckpt.write_checkpoint(
                    checkpoint_path,
                    key=key,
                    frame_index=done,
                    n_frames=total,
                    frames=frames,
                    state=self.snapshot_state(),
                )
        return TraceRunResult(config=self.config, frames=frames)
