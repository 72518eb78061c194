"""CLI: replay a trace through a cache configuration.

Usage::

    python -m repro.tools.simulate trace.stream --l1-kb 2            # pull
    python -m repro.tools.simulate trace.stream --l1-kb 2 --l2-kb 2048 \\
        --l2-tile 16 --tlb 8 --policy clock                        # L2 arch
    python -m repro.tools.simulate trace.stream --l1-kb 2 \\
        --fault-rate 0.01 --max-retries 3                          # faulty AGP
    python -m repro.tools.simulate trace.stream --l1-kb 2 --l2-kb 2048 \\
        --analytic                                # stack-distance fast path
    python -m repro.tools.simulate trace.stream --l1-kb 2 --l2-kb 2048 \\
        --checkpoint run.ckpt --checkpoint-every 8         # crash-safe run
    python -m repro.tools.simulate trace.stream --l1-kb 2 --l2-kb 2048 \\
        --resume-from run.ckpt --checkpoint-every 8        # continue it
    python -m repro.tools.simulate trace.stream --l1-kb 2 --vt \\
        --vt-pages 256 --vt-budget-us 2000 --vt-fault-rate 0.1   # paged VT
    python -m repro.tools.simulate trace.stream --l1-kb 2 --l2-kb 2048 \\
        --tenants 4 --tenant-policy utility --tenant-schedule bursty \\
        --tenant-weights 2,1,1,1                    # multi-tenant serving
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.core.timing import TimingModel, bus_bound_fraction, estimate_frame_timings, mean_fps
from repro.errors import ConfigError, TraceFormatError
from repro.experiments.reporting import format_table
from repro.reliability import FaultModel, TransferPolicy
from repro.tenancy import POLICIES as TENANT_POLICIES
from repro.tenancy import SCHEDULES as TENANT_SCHEDULES
from repro.trace.stream import open_trace

__all__ = ["main"]

#: (flag, default) pairs that only make sense together with ``--vt``.
_VT_DEPENDENT_FLAGS = (
    ("vt_page", 32), ("vt_pages", 512), ("vt_inflight", 32),
    ("vt_budget_us", 2000.0), ("vt_timeout_frames", 4),
    ("vt_fault_rate", 0.0),
)

#: (flag, default) pairs that only make sense with ``--tenants >= 2``.
_TENANT_DEPENDENT_FLAGS = (
    ("tenant_policy", "none"), ("tenant_schedule", "rr"),
    ("tenant_weights", None), ("tenant_ways", 8), ("tenant_seed", 0),
)


def _flag_name(attr: str) -> str:
    return "--" + attr.replace("_", "-")


def validate_vt_flags(args) -> None:
    """Reject contradictory ``--vt*`` combinations (typed ConfigError)."""
    if not args.vt:
        for attr, default in _VT_DEPENDENT_FLAGS:
            if getattr(args, attr) != default:
                raise ConfigError(
                    _flag_name(attr), str(getattr(args, attr)),
                    "needs --vt",
                )
    if args.vt and args.analytic:
        raise ConfigError(
            "--vt", "on", "the analytic fast path does not model virtual "
            "texturing; drop --analytic",
        )
    if args.vt and args.tenants > 1:
        raise ConfigError(
            "--vt", "on",
            "virtual texturing cannot be combined with multi-tenancy",
        )
    if not 0.0 <= args.vt_fault_rate <= 1.0:
        raise ConfigError(
            "--vt-fault-rate", str(args.vt_fault_rate), "must be in [0, 1]",
        )


def validate_tenant_flags(args) -> None:
    """Reject contradictory ``--tenant*`` combos; parses ``--tenant-weights``.

    Raises the typed :class:`~repro.errors.ConfigError` (satellite of
    ISSUE 7) — the CLI turns it into a clean usage error, and library
    callers get a catchable exception instead of a stack trace.
    """
    if args.tenants < 1:
        raise ConfigError("--tenants", str(args.tenants), "must be >= 1")
    if args.tenants == 1:
        for attr, default in _TENANT_DEPENDENT_FLAGS:
            if getattr(args, attr) != default:
                raise ConfigError(
                    _flag_name(attr), str(getattr(args, attr)),
                    "needs --tenants >= 2",
                )
        args.tenant_weight_values = None
        return
    if args.analytic:
        raise ConfigError(
            "--tenants", str(args.tenants),
            "the analytic fast path is single-context; drop --analytic",
        )
    if args.tenant_policy != "none" and args.l2_kb is None:
        raise ConfigError(
            "--tenant-policy", args.tenant_policy,
            "partitions the L2; add --l2-kb",
        )
    if args.tenant_policy == "way" and args.tenants > args.tenant_ways:
        raise ConfigError(
            "--tenant-ways", str(args.tenant_ways),
            f"cannot give {args.tenants} tenants a way each",
        )
    if args.tenant_ways < 1:
        raise ConfigError(
            "--tenant-ways", str(args.tenant_ways), "must be >= 1"
        )
    weights = None
    if args.tenant_weights is not None:
        try:
            weights = [float(w) for w in args.tenant_weights.split(",")]
        except ValueError:
            raise ConfigError(
                "--tenant-weights", args.tenant_weights,
                "must be comma-separated numbers",
            ) from None
        if len(weights) != args.tenants:
            raise ConfigError(
                "--tenant-weights", args.tenant_weights,
                f"got {len(weights)} weights for {args.tenants} tenants",
            )
        if any(w <= 0 for w in weights):
            raise ConfigError(
                "--tenant-weights", args.tenant_weights,
                "weights must be positive",
            )
    args.tenant_weight_values = weights


def _run_analytic(args, trace) -> int:
    """Stack-distance fast path: no transaction simulation."""
    import numpy as np

    from repro.analytic import l1_mrc_sweep, l2_block_mrc, opt_l2_result

    l1_bytes = int(args.l1_kb * 1024)
    start = time.time()
    point = l1_mrc_sweep(trace, [l1_bytes], ways=args.ways)[l1_bytes]
    rows = [
        ["texel reads", f"{point.texel_reads:,}"],
        ["L1 misses (analytic)", f"{point.misses:,}"],
        ["L1 hit rate (analytic)", f"{point.hit_rate:.4f}"],
    ]
    if args.l2_kb is not None:
        cfg = L2CacheConfig(
            size_bytes=int(args.l2_kb * 1024), l2_tile_texels=args.l2_tile
        )
        curve = l2_block_mrc(
            trace, l1_bytes, [cfg.n_blocks], l2_tile_texels=args.l2_tile,
            l1_ways=args.ways,
        )
        idx = int(np.searchsorted(curve.capacities, cfg.n_blocks))
        rows.append(
            ["L2 block-residency rate (analytic LRU)",
             f"{float(curve.hit_ratios[idx]):.3f}"]
        )
        opt = opt_l2_result(trace, l1_bytes, cfg, l1_ways=args.ways)
        full, partial = opt.hit_rates()
        rows.append(["L2 full-hit rate (OPT bound)", f"{full:.3f}"])
        rows.append(["L2 partial-hit rate (OPT bound)", f"{partial:.3f}"])
        agp_frame = opt.agp_bytes / max(len(trace.frames), 1)
        rows.append(
            ["mean AGP MB/frame (OPT bound)", f"{agp_frame / (1 << 20):.3f}"]
        )
        if args.fps is not None:
            rows.append(
                [f"AGP MB/s @ {args.fps:g} Hz (OPT bound)",
                 f"{agp_frame * args.fps / 1e6:.1f}"]
            )
    rows.append(["analytic time", f"{time.time() - start:.2f}s"])
    print(format_table(["metric", "value"], rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.simulate",
        description="Replay a trace through an L1(/L2/TLB) configuration.",
    )
    parser.add_argument("trace",
                    help="trace directory (.stream)")
    parser.add_argument("--l1-kb", type=float, default=2.0,
                        help="L1 cache size in KB (default 2)")
    parser.add_argument("--ways", type=int, default=2,
                        help="L1 associativity (default 2; any value runs "
                             "batched — 1-2 via the MRU/LRU scan, higher "
                             "via the recency-level kernel)")
    parser.add_argument("--l2-kb", type=float, default=None,
                        help="L2 cache size in KB (omit for pull architecture)")
    parser.add_argument("--l2-tile", type=int, default=16,
                        help="L2 block edge in texels (default 16)")
    parser.add_argument("--policy", default="clock",
                        choices=["clock", "lru", "fifo", "random", "belady"])
    parser.add_argument("--analytic", action="store_true",
                        help="stack-distance model instead of the "
                             "transaction sim (L1 exact; L2 reported as "
                             "analytic LRU + offline Belady OPT bound)")
    parser.add_argument("--tlb", type=int, default=None,
                        help="TLB entries (requires --l2-kb)")
    parser.add_argument("--fps", type=float, default=None,
                        help="also report MB/s at this frame rate")
    parser.add_argument("--fault-rate", type=float, default=0.0,
                        help="P(drop/corrupt) per 64-byte block transfer "
                             "(default 0: fault-free)")
    parser.add_argument("--max-retries", type=int, default=3,
                        help="re-transfer attempts per failed block (default 3)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="fault-model seed (default 0; same seed, same run)")
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="write crash-safe checkpoints to PATH "
                             "(with --checkpoint-every)")
    parser.add_argument("--checkpoint-every", type=int, metavar="N", default=0,
                        help="checkpoint every N frames (default 0: never)")
    parser.add_argument("--resume-from", metavar="PATH", default=None,
                        help="restore PATH and continue the run from it; "
                             "results are bit-identical to an uninterrupted "
                             "run")
    vt_group = parser.add_argument_group(
        "virtual texturing",
        "Demand-paged megatexture with MIP-fallback degradation; all "
        "--vt-* flags require --vt.",
    )
    vt_group.add_argument("--vt", action="store_true",
                          help="page textures through the virtual-texturing "
                               "engine")
    vt_group.add_argument("--vt-page", type=int, metavar="TEXELS", default=32,
                          help="VT page edge in texels (default 32)")
    vt_group.add_argument("--vt-pages", type=int, metavar="N", default=512,
                          help="VT resident-page budget (default 512)")
    vt_group.add_argument("--vt-inflight", type=int, metavar="N", default=32,
                          help="max in-flight page fetches (default 32)")
    vt_group.add_argument("--vt-budget-us", type=float, metavar="US",
                          default=2000.0,
                          help="per-frame page-streaming budget in "
                               "microseconds (default 2000)")
    vt_group.add_argument("--vt-timeout-frames", type=int, metavar="N",
                          default=4,
                          help="frames before an in-flight fetch times out "
                               "(default 4)")
    vt_group.add_argument("--vt-fault-rate", type=float, metavar="P",
                          default=0.0,
                          help="P(drop) per page-fetch attempt (default 0; "
                               "uses --fault-seed); $REPRO_CHAOS adds "
                               "deterministic kills/stalls/bitflips")
    tenant_group = parser.add_argument_group(
        "multi-tenant serving",
        "Replicate the trace into N tenant contexts, interleave them into "
        "one shared stream, and share (or partition) the L2/TLB between "
        "them; all --tenant-* flags require --tenants >= 2.",
    )
    tenant_group.add_argument("--tenants", type=int, metavar="N", default=1,
                              help="number of tenant contexts (default 1: "
                                   "single-tenant)")
    tenant_group.add_argument("--tenant-policy", default="none",
                              choices=list(TENANT_POLICIES),
                              help="L2 partitioning policy (default none: "
                                   "shared free-for-all)")
    tenant_group.add_argument("--tenant-schedule", default="rr",
                              choices=list(TENANT_SCHEDULES),
                              help="interleaving schedule (default rr)")
    tenant_group.add_argument("--tenant-weights", metavar="W1,W2,...",
                              default=None,
                              help="per-tenant scheduler/quota weights "
                                   "(default: equal)")
    tenant_group.add_argument("--tenant-ways", type=int, metavar="W",
                              default=8,
                              help="total ways of the way-partitioned L2 "
                                   "(default 8; --tenant-policy way)")
    tenant_group.add_argument("--tenant-seed", type=int, default=0,
                              help="scheduler seed (default 0; same seed, "
                                   "same interleaving)")
    args = parser.parse_args(argv)
    try:
        validate_vt_flags(args)
        validate_tenant_flags(args)
        l1 = L1CacheConfig(size_bytes=int(args.l1_kb * 1024), ways=args.ways)
    except ConfigError as exc:
        parser.error(str(exc))
    if not 0.0 <= args.fault_rate <= 1.0:
        parser.error(f"--fault-rate must be in [0, 1], got {args.fault_rate}")
    if args.max_retries < 0:
        parser.error(f"--max-retries must be >= 0, got {args.max_retries}")
    if args.policy == "belady" and not args.analytic:
        parser.error("--policy belady is offline-only; add --analytic")
    if args.analytic and args.tlb is not None:
        parser.error("--analytic models caches only; drop --tlb")
    if args.analytic and args.fault_rate > 0:
        parser.error("--analytic is fault-free; drop --fault-rate")
    ckpt_path = args.resume_from or args.checkpoint
    if args.resume_from is not None and not os.path.isfile(args.resume_from):
        parser.error(f"--resume-from {args.resume_from}: no such checkpoint")
    if args.checkpoint_every < 0:
        parser.error(f"--checkpoint-every must be >= 0, got {args.checkpoint_every}")
    if args.checkpoint_every and ckpt_path is None:
        parser.error("--checkpoint-every needs --checkpoint or --resume-from")
    if args.analytic and ckpt_path is not None:
        parser.error("--analytic runs have no simulator state to checkpoint")

    try:
        trace = open_trace(args.trace)
    except TraceFormatError as exc:
        parser.error(str(exc))
    if args.analytic:
        return _run_analytic(args, trace)
    fault_model = (
        FaultModel(drop_rate=args.fault_rate, seed=args.fault_seed)
        if args.fault_rate > 0
        else None
    )
    l2 = (
        L2CacheConfig(
            size_bytes=int(args.l2_kb * 1024),
            l2_tile_texels=args.l2_tile,
            policy=args.policy,
        )
        if args.l2_kb is not None
        else None
    )
    vt_config = None
    if args.vt:
        from repro.reliability.chaos import ChaosPolicy
        from repro.vt import VtConfig

        chaos = ChaosPolicy.from_env() if os.environ.get("REPRO_CHAOS") else None
        vt_config = VtConfig(
            page_texels=args.vt_page,
            max_resident_pages=args.vt_pages,
            max_in_flight=args.vt_inflight,
            frame_budget_us=args.vt_budget_us,
            timeout_frames=args.vt_timeout_frames,
            fault_model=(
                FaultModel(drop_rate=args.vt_fault_rate, seed=args.fault_seed)
                if args.vt_fault_rate > 0
                else None
            ),
            policy=TransferPolicy(max_retries=args.max_retries),
            chaos=chaos,
        )
    tenancy = None
    if args.tenants > 1:
        from repro.tenancy import (
            TenancyConfig,
            merge_traces,
            static_quotas,
            utility_quotas,
            way_quotas,
        )

        tenant_traces = [trace] * args.tenants
        weights = args.tenant_weight_values
        # Lazy merge: each interleaved frame is built on access, so a
        # streamed input never materializes the full multi-tenant stream.
        trace, tid_bases = merge_traces(
            tenant_traces,
            schedule=args.tenant_schedule,
            weights=weights,
            seed=args.tenant_seed,
            lazy=True,
        )
        quotas = None
        if args.tenant_policy == "static":
            quotas = static_quotas(l2, args.tenants, weights)
        elif args.tenant_policy == "way":
            quotas = way_quotas(args.tenant_ways, args.tenants, weights)
        elif args.tenant_policy == "utility":
            quotas = utility_quotas(
                tenant_traces, int(args.l1_kb * 1024), l2, l1_ways=args.ways
            )
        tenancy = TenancyConfig(
            tid_bases=tid_bases,
            policy=args.tenant_policy,
            quotas=quotas,
            ways=args.tenant_ways,
        )
    config = HierarchyConfig(
        l1=l1,
        l2=l2,
        tlb_entries=args.tlb,
        fault_model=fault_model,
        transfer_policy=(
            TransferPolicy(max_retries=args.max_retries) if fault_model else None
        ),
        vt=vt_config,
        tenancy=tenancy,
    )
    sim = MultiLevelTextureCache(config, trace.address_space)
    if args.resume_from is not None:
        from repro.reliability import checkpoint as ckpt

        try:
            loaded = ckpt.read_checkpoint(
                args.resume_from,
                expected_key=ckpt.run_key(trace, config),
            )
        except ckpt.CheckpointCorruptError as exc:
            if getattr(exc, "mismatch", False):
                parser.error(f"--resume-from {args.resume_from}: {exc.detail}")
            # Damaged file: run_trace quarantines it (with a warning) and
            # restarts from scratch.
            print(
                f"checkpoint {args.resume_from} is damaged ({exc.detail}); "
                "restarting from scratch",
                file=sys.stderr,
            )
        else:
            print(
                f"resuming from {args.resume_from} at frame "
                f"{loaded.frame_index}/{len(trace.frames)}",
                file=sys.stderr,
            )
    start = time.time()
    result = sim.run_trace(
        trace,
        checkpoint_path=ckpt_path,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume_from is not None,
    )
    elapsed = time.time() - start

    rows = [
        ["texel reads", f"{result.total_texel_reads:,}"],
        ["L1 misses", f"{result.total_l1_misses:,}"],
        ["L1 hit rate", f"{result.l1_hit_rate:.4f}"],
        ["mean AGP MB/frame", f"{result.mean_agp_bytes_per_frame / (1 << 20):.3f}"],
    ]
    if l2 is not None:
        rows.append(["L2 full-hit rate", f"{result.l2_full_hit_rate:.3f}"])
        rows.append(["L2 partial-hit rate", f"{result.l2_partial_hit_rate:.3f}"])
    if args.tlb is not None:
        rows.append(["TLB hit rate", f"{result.tlb_hit_rate:.3f}"])
    if args.fps is not None:
        mbps = result.mean_agp_bytes_per_frame * args.fps / 1e6
        rows.append([f"AGP MB/s @ {args.fps:g} Hz", f"{mbps:.1f}"])
    if fault_model is not None:
        rows.append(["retried transfers", f"{result.total_retried_transfers:,}"])
        rows.append(
            ["retry MB total", f"{result.total_retry_bytes / (1 << 20):.3f}"]
        )
        rows.append(
            [
                "effective AGP MB/frame",
                f"{result.mean_effective_agp_bytes_per_frame / (1 << 20):.3f}",
            ]
        )
        rows.append(["stale blocks", f"{result.total_stale_blocks:,}"])
        rows.append(
            ["degraded frames", f"{result.degraded_frames}/{len(result.frames)}"]
        )
    if args.vt:
        rows.append(["VT page fetches", f"{result.total_page_fetches:,}"])
        rows.append(
            [
                "VT stream KB/frame",
                f"{result.total_vt_fetched_bytes / max(len(result.frames), 1) / 1024:.1f}",
            ]
        )
        rows.append(["VT pages degraded", f"{result.total_pages_degraded:,}"])
        rows.append(["VT mean MIP bias", f"{result.vt_mean_mip_bias:.2f}"])
        rows.append(["VT timeouts", f"{result.total_vt_timeouts:,}"])
        rows.append(["VT deferred (backpressure)", f"{result.total_vt_deferred:,}"])
        rows.append(["VT failed fetches", f"{result.total_vt_failed_fetches:,}"])
        rows.append(["VT pages quarantined", f"{result.total_page_quarantines:,}"])
        rows.append(
            [
                "VT degraded frames",
                f"{result.vt_degraded_frames}/{len(result.frames)}",
            ]
        )
        rows.append(["VT stall-free rate", f"{result.stall_free_rate:.2f}"])
    if tenancy is not None:
        import numpy as np

        from repro.tenancy import jain_index, tenant_frame_costs_us
        from repro.tenancy import worst_tenant_p99_cost_us
        from repro.texture.tiling import L1_BLOCK_BYTES

        if tenancy.policy != "none":
            rows.append(
                ["tenant quotas",
                 ",".join(str(q) for q in tenancy.quotas)
                 + (" ways" if tenancy.policy == "way" else " blocks")]
            )
        reads = np.sum(
            [f.tenants.texel_reads for f in result.frames], axis=0
        )
        downloads = np.sum(
            [f.tenants.host_downloads for f in result.frames], axis=0
        )
        costs = tenant_frame_costs_us(result.frames).sum(axis=0)
        for t in range(tenancy.n_tenants):
            agp_mb = (
                downloads[t] * L1_BLOCK_BYTES / (1 << 20)
                / max(len(result.frames), 1)
            )
            rows.append(
                [f"tenant {t}: reads / AGP MB/frame",
                 f"{int(reads[t]):,} / {agp_mb:.3f}"]
            )
        # Equal service quality means equal cost per texel read; Jain over
        # the per-tenant read throughput per cost-µs captures deviation.
        throughput = np.where(costs > 0, reads / np.maximum(costs, 1e-12), 0)
        rows.append(
            ["fairness (Jain, reads/µs)", f"{jain_index(throughput):.3f}"]
        )
        rows.append(
            ["worst-tenant P99 frame cost µs",
             f"{worst_tenant_p99_cost_us(result.frames):.1f}"]
        )
    timings = estimate_frame_timings(result, TimingModel())
    rows.append(["est. texturing fps (timing model)", f"{mean_fps(timings):.1f}"])
    rows.append(["bus-bound frames", f"{bus_bound_fraction(timings):.0%}"])
    rows.append(["simulation time", f"{elapsed:.2f}s"])

    print(format_table(["metric", "value"], rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
