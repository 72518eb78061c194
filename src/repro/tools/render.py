"""CLI: render a workload animation into a trace directory.

Usage::

    python -m repro.tools.render village out.stream --width 320 --height 240 \\
        --frames 32 --filter trilinear --detail 1.0

The output is a chunked trace *directory* (:mod:`repro.trace.stream`)
written frame by frame in bounded memory, so paper-scale renders fit;
pass it to ``python -m repro.tools.simulate`` or
``python -m repro.tools.trace_info``.

With ``--jobs N`` (default ``$REPRO_JOBS``, else 1) frame shards render
across N supervised worker processes; the output is byte-identical to a
serial render whatever N is.
N is clamped to the CPUs the process may use, and a clamp to 1 renders
serially.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ConfigError
from repro.experiments.config import Scale
from repro.experiments.traces import (
    clamp_render_jobs,
    render_trace_stream,
    resolve_render_jobs,
)
from repro.reliability.supervisor import parse_jobs
from repro.scenes import WORKLOAD_BUILDERS
from repro.texture.sampler import FilterMode

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.render",
        description="Render a workload animation into a trace directory.",
    )
    parser.add_argument("workload", choices=sorted(WORKLOAD_BUILDERS))
    parser.add_argument("output", help="output trace directory (.stream)")
    parser.add_argument("--width", type=int, default=320)
    parser.add_argument("--height", type=int, default=240)
    parser.add_argument("--frames", type=int, default=32)
    parser.add_argument("--detail", type=float, default=1.0)
    parser.add_argument(
        "--filter",
        dest="filter_mode",
        choices=[m.value for m in FilterMode],
        default="bilinear",
    )
    parser.add_argument("--z-first", action="store_true",
                        help="depth-test before texturing (SS6 variant)")
    parser.add_argument("--tiled", action="store_true",
                        help="tiled rasterization order")
    par = parser.add_argument_group(
        "parallel rendering",
        "Frames are independent given the scene, so contiguous frame "
        "shards render across a supervised worker pool (watchdogs, "
        "dead-worker replacement, requeue) and merge in frame order; the "
        "output is byte-identical to a serial render.",
    )
    par.add_argument(
        "--jobs",
        default=None,
        help="render worker processes (>= 1; default $REPRO_JOBS, then 1; "
             "at most the available CPUs)",
    )
    args = parser.parse_args(argv)

    if args.jobs is None:
        try:
            jobs = resolve_render_jobs()
        except ConfigError as exc:
            parser.error(str(exc))
    else:
        try:
            jobs = clamp_render_jobs(parse_jobs("--jobs", args.jobs))
        except ConfigError as exc:
            parser.error(str(exc))

    scale = Scale(
        width=args.width,
        height=args.height,
        frames=args.frames,
        detail=args.detail,
        name="cli",
    )
    start = time.time()
    trace = render_trace_stream(
        args.workload,
        scale,
        FilterMode(args.filter_mode),
        args.output,
        z_first=args.z_first,
        tiled=args.tiled,
        workers=jobs,
    )
    elapsed = time.time() - start
    reads = trace.total_texel_reads()
    print(
        f"wrote {args.output}: {trace.meta.n_frames} frames, "
        f"{reads:,} texel reads, {elapsed:.1f}s ({jobs} job(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
