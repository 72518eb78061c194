"""CLI: summarize a trace directory.

Usage::

    python -m repro.tools.trace_info trace.stream [--l2-tile 16]
    python -m repro.tools.trace_info trace.stream --verify   # integrity check
    python -m repro.tools.trace_info trace.stream --json     # machine-readable
    python -m repro.tools.trace_info mrc trace.stream \\
        [--l1-sizes 2,4,8,16,32] [--ways 2] [--sample 1] [--json]
    python -m repro.tools.trace_info tenants a.stream b.stream \\
        [--l2-tile 16] [--json]
    python -m repro.tools.trace_info tenants trace.stream --tenants 4
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.errors import TraceCorruptionError, TraceFormatError
from repro.experiments.reporting import format_table, kb, mb
from repro.trace.locality import frame_reuse_distance_histogram
from repro.trace.stats import workload_stats
from repro.trace.stream import open_trace
from repro.trace.workingset import (
    l2_memory_curve,
    per_frame_new_blocks,
    per_frame_unique_blocks,
    push_memory_curve,
)

__all__ = ["main"]


def _open(parser: argparse.ArgumentParser, path: str):
    """Open a trace for a subcommand; a non-trace path is a usage error."""
    try:
        return open_trace(path)
    except TraceFormatError as exc:
        parser.error(str(exc))


def _verify(path: str) -> int:
    """Chunk-by-chunk integrity check (``--verify``); returns the exit code."""
    try:
        report = open_trace(path).verify()
    except TraceCorruptionError as exc:
        print(f"trace: {path}")
        print(f"  CORRUPT: {exc.detail}")
        return 1
    except TraceFormatError as exc:
        print(f"trace: {path}")
        print(f"  UNSUPPORTED: {exc}")
        return 1

    print(f"trace: {path}")
    print(
        f"  format v{report.version}, {report.n_frames} frames, "
        f"{len(report.checks)} arrays checked"
    )
    rows = [
        [str(i), report.frame_status(i)] for i in range(report.n_frames)
    ]
    print(format_table(["frame", "integrity"], rows))
    if report.ok:
        print("OK: all arrays verified")
        return 0
    for check in report.problems:
        print(f"DAMAGED: {check.name}: {check.status}")
    return 1


def _mrc_main(argv: list[str]) -> int:
    """``trace_info mrc``: analytic L1 miss-ratio curve for one trace."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.trace_info mrc",
        description="Single-pass analytic L1 miss-ratio curve of a trace.",
    )
    parser.add_argument("trace", help="trace directory (.stream)")
    parser.add_argument("--l1-sizes", default="2,4,8,16,32",
                        help="comma-separated L1 sizes in KB "
                             "(default 2,4,8,16,32 - the Fig 9 sweep)")
    parser.add_argument("--ways", type=int, default=2,
                        help="L1 associativity (default 2)")
    parser.add_argument("--sample", type=float, default=1.0,
                        help="fraction of cache sets to profile (default 1: "
                             "exact; 0.25 matches the sim within ~0.05 pp)")
    parser.add_argument("--json", action="store_true",
                        help="emit the curve as JSON")
    args = parser.parse_args(argv)
    try:
        sizes = sorted(
            int(float(s) * 1024) for s in args.l1_sizes.split(",") if s.strip()
        )
    except ValueError:
        parser.error(f"--l1-sizes must be comma-separated KB, got {args.l1_sizes!r}")
    if not sizes:
        parser.error("--l1-sizes selected no sizes")
    if not 0.0 < args.sample <= 1.0:
        parser.error(f"--sample must be in (0, 1], got {args.sample}")

    from repro.analytic import l1_mrc_sweep

    trace = _open(parser, args.trace)
    sweep = l1_mrc_sweep(trace, sizes, ways=args.ways, sample=args.sample)
    if args.json:
        payload = {
            "trace": args.trace,
            "ways": args.ways,
            "sample": args.sample,
            "points": [
                {
                    "size_bytes": p.size_bytes,
                    "n_sets": p.n_sets,
                    "accesses": p.accesses,
                    "texel_reads": p.texel_reads,
                    "misses": p.misses,
                    "miss_rate": p.miss_rate,
                }
                for p in (sweep[s] for s in sizes)
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    rows = [
        [
            kb(p.size_bytes),
            str(p.n_sets),
            f"{p.misses:,}",
            f"{p.miss_rate:.5f}",
            f"{p.hit_rate:.5f}",
        ]
        for p in (sweep[s] for s in sizes)
    ]
    print(f"trace: {args.trace}  (ways={args.ways}, set-sample={args.sample:g})")
    print(format_table(
        ["L1 size", "sets", "misses", "miss rate", "hit rate"], rows
    ))
    return 0


def _footprint_blocks(trace, l2_tile: int) -> int:
    """Distinct L2 blocks a trace touches, counted block by block."""
    space = trace.address_space
    seen = np.zeros(space.total_l2_blocks(l2_tile), dtype=bool)
    for frame in trace.frames:
        for refs, _ in frame.blocks(sys.maxsize):
            seen[space.global_l2_ids(refs, l2_tile)] = True
    return int(np.count_nonzero(seen))


def _tenants_main(argv: list[str]) -> int:
    """``trace_info tenants``: each tenant's share of a merged address space."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.trace_info tenants",
        description="Lay per-tenant traces out in one shared address space "
                    "and print each tenant's footprint and locality "
                    "fingerprint.",
    )
    parser.add_argument("traces", nargs="+",
                        help="per-tenant trace directories (.stream); pass "
                             "one with --tenants N to clone it")
    parser.add_argument("--tenants", type=int, metavar="N", default=None,
                        help="clone a single trace into N tenant contexts")
    parser.add_argument("--l2-tile", type=int, default=16,
                        help="L2 block edge in texels (default 16)")
    parser.add_argument("--json", action="store_true",
                        help="emit the per-tenant fingerprints as JSON")
    args = parser.parse_args(argv)

    from repro.tenancy import tenant_gid_extents, tenant_tid_bases
    from repro.texture.tiling import L1_BLOCK_BYTES, AddressSpace
    from repro.trace.locality import locality_fractions

    paths = list(args.traces)
    if args.tenants is not None:
        if len(paths) != 1:
            parser.error("--tenants clones a single trace; pass one directory")
        if args.tenants < 2:
            parser.error(f"--tenants must be >= 2, got {args.tenants}")
        paths = paths * args.tenants
    elif len(paths) < 2:
        parser.error("need two or more traces (or one with --tenants N)")
    opened = {p: _open(parser, p) for p in paths}
    traces = [opened[p] for p in paths]

    tid_bases = tenant_tid_bases([len(t.textures) for t in traces])
    extents = tenant_gid_extents(
        AddressSpace([tex for t in traces for tex in t.textures]),
        tid_bases,
        args.l2_tile,
    )
    # A tenant's gids in the merged page table are its own gids shifted by
    # its extent base, so its footprint is counted on its own trace (once
    # per distinct trace: clones share it). Locality classes need object
    # offsets, which only the tenant's own trace carries.
    footprints = {p: _footprint_blocks(t, args.l2_tile) for p, t in opened.items()}
    localities = {}
    for p, trace in opened.items():
        try:
            localities[p] = locality_fractions(trace, args.l2_tile)
        except ValueError:
            localities[p] = None
    block_bytes = (args.l2_tile // 4) ** 2 * L1_BLOCK_BYTES

    tenants = []
    for t, (trace, path) in enumerate(zip(traces, paths)):
        tenants.append({
            "tenant": t,
            "trace": path,
            "workload": trace.meta.workload,
            "textures": len(trace.textures),
            "tid_base": tid_bases[t],
            "gid_range": list(extents[t]),
            "texel_reads": trace.total_texel_reads(),
            "footprint_blocks": footprints[path],
            "footprint_bytes": footprints[path] * block_bytes,
            "locality": localities[path],
        })

    if args.json:
        print(json.dumps({
            "l2_tile": args.l2_tile,
            "tenants": tenants,
        }, indent=2))
        return 0

    print(
        f"{len(tenants)} tenants in one address space, "
        f"{args.l2_tile}x{args.l2_tile} blocks"
    )
    classes = sorted(
        {k for t in tenants if t["locality"] for k in t["locality"]}
    )
    rows = []
    for t in tenants:
        row = [
            str(t["tenant"]),
            t["workload"],
            str(t["textures"]),
            f"[{t['gid_range'][0]}, {t['gid_range'][1]})",
            f"{t['texel_reads']:,}",
            f"{t['footprint_blocks']:,} ({mb(t['footprint_bytes'])})",
        ]
        for c in classes:
            row.append(
                f"{t['locality'][c]:.1%}" if t["locality"] else "n/a"
            )
        rows.append(row)
    print(format_table(
        ["tenant", "workload", "textures", "gid range", "texel reads",
         "footprint"] + classes,
        rows,
    ))
    return 0


def _json_summary(trace, path: str, l2_tile: int) -> dict:
    """Machine-readable summary payload (``--json``)."""
    from repro.analytic import reuse_distance_histograms

    m = trace.meta
    stats = workload_stats(trace, l2_tile)
    frame_hist = frame_reuse_distance_histogram(trace, l2_tile)
    hists = reuse_distance_histograms(trace, l2_tile)
    return {
        "trace": path,
        "workload": m.workload,
        "resolution": [m.width, m.height],
        "frames": m.n_frames,
        "filter": str(m.filter_mode),
        "texel_reads": trace.total_texel_reads(),
        "stats": {
            "depth_complexity": stats.depth_complexity,
            "block_utilization": stats.block_utilization,
            "expected_working_set_bytes": stats.expected_working_set_bytes,
            "mean_fragments": stats.mean_fragments,
            "mean_unique_blocks": stats.mean_unique_blocks,
        },
        "frame_reuse_distances": dict(frame_hist),
        "locality": {
            "tile_texels": hists.tile_texels,
            "bin_labels": hists.bin_labels,
            "class_totals": hists.class_totals(),
            "per_class": {k: v.tolist() for k, v in hists.per_class.items()},
            "per_frame": hists.per_frame.tolist(),
        },
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "mrc":
        return _mrc_main(argv[1:])
    if argv and argv[0] == "tenants":
        return _tenants_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.trace_info",
        description="Summarize a rendered texture-access trace "
                    "(or 'mrc <trace>' for its analytic miss-ratio curve).",
    )
    parser.add_argument("trace", help="trace directory (.stream)")
    parser.add_argument("--l2-tile", type=int, default=16,
                        help="L2 block edge in texels (default 16)")
    parser.add_argument("--verify", action="store_true",
                        help="check manifest checksums and per-frame integrity "
                             "without loading the whole trace; exit 1 if damaged")
    parser.add_argument("--json", action="store_true",
                        help="emit stats, locality-class totals, and "
                             "reuse-distance histograms as JSON")
    args = parser.parse_args(argv)

    if args.verify:
        return _verify(args.trace)

    trace = _open(parser, args.trace)
    if args.json:
        print(json.dumps(_json_summary(trace, args.trace, args.l2_tile), indent=2))
        return 0
    m = trace.meta
    stats = workload_stats(trace, args.l2_tile)
    uniques = per_frame_unique_blocks(trace, args.l2_tile)
    new = per_frame_new_blocks(uniques)
    l2_curve = l2_memory_curve(trace, args.l2_tile)
    push_curve = push_memory_curve(trace)

    print(f"trace: {args.trace}")
    print(
        f"  workload={m.workload}  {m.width}x{m.height}  frames={m.n_frames}  "
        f"filter={m.filter_mode}"
    )
    print(f"  textures: {len(trace.textures)} "
          f"({mb(sum(t.host_bytes for t in trace.textures))} host memory)")
    print(f"  texel reads: {trace.total_texel_reads():,}")
    print()
    rows = [
        ["depth complexity d", f"{stats.depth_complexity:.2f}"],
        ["block utilization", f"{stats.block_utilization:.2f}"],
        ["expected working set W", mb(stats.expected_working_set_bytes)],
        ["mean unique blocks/frame", f"{np.mean([len(u) for u in uniques]):.0f}"],
        ["mean new blocks/frame", f"{new[1:].mean() if len(new) > 1 else 0:.0f}"],
        ["peak L2 minimum memory", mb(float(l2_curve.max()))],
        ["peak push minimum memory", mb(float(push_curve.max()))],
    ]
    print(format_table(["statistic", f"value ({args.l2_tile}x{args.l2_tile} blocks)"], rows))

    hist = frame_reuse_distance_histogram(trace, args.l2_tile)
    total = max(sum(hist.values()), 1)
    print("\nframe-level reuse distances (block first touches):")
    print(
        format_table(
            ["distance"] + list(hist),
            [["share"] + [f"{v / total:.1%}" for v in hist.values()]],
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
