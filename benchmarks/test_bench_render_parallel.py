"""Bench target for supervised parallel frame rendering.

Renders the bench City animation through :func:`render_trace_stream` at
1, 2 and 4 workers and asserts the pairing's two contracts: the merged
``.stream`` directory is byte-for-byte the serial render at every worker
count, and — on machines with at least 4 CPUs — 4 workers deliver the
wall-clock speedup the shard pipeline exists for.

Timing methodology follows ``test_bench_raster``: worker counts are
interleaved round by round in one process, round zero is discarded as
warmup, and each count keeps its best round. Byte identity is asserted
on every round's output, not just the timed best.

The speedup floor is conditional on CPU count: a single-core container
still proves identity (the shards really render in separate supervised
processes) but cannot prove parallel scaling, so the floor is recorded
but only enforced when ``len(os.sched_getaffinity(0)) >= 4``. The
workers here are requested explicitly, so they are not clamped; the
artifact at ``BENCH_render_parallel.json`` records the CPU count, and
the job count ``render --jobs N`` would actually use for each N
(clamped to the CPUs), so a reader can tell which regime produced the
numbers.
"""

import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.experiments.config import Scale
from repro.experiments.traces import clamp_render_jobs, render_trace_stream
from repro.texture.sampler import FilterMode

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_render_parallel.json"
MIN_SPEEDUP = 2.5
ROUNDS = 3
WORKER_COUNTS = (1, 2, 4)

#: Paper-like density, short animation: 8 frames shard into 8 single-frame
#: tasks at 4 workers (two waves per worker), the regime CI nightly runs in.
SCALE = Scale(width=320, height=240, frames=8, detail=1.0, name="pbench")


def _dir_digest(path: Path) -> dict[str, str]:
    return {
        str(f.relative_to(path)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.rglob("*"))
        if f.is_file()
    }


def _render(root: Path, workers: int) -> tuple[float, dict[str, str]]:
    out = root / f"city_{workers}.stream"
    if out.exists():
        shutil.rmtree(out)
    start = time.perf_counter()
    render_trace_stream("city", SCALE, FilterMode.TRILINEAR, out, workers=workers)
    elapsed = time.perf_counter() - start
    digest = _dir_digest(out)
    shutil.rmtree(out)
    return elapsed, digest


def test_parallel_render_speedup_and_identity(benchmark):
    cpus = len(os.sched_getaffinity(0))
    best = {w: float("inf") for w in WORKER_COUNTS}
    digests = {}
    root = Path(tempfile.mkdtemp(prefix="repro-bench-render-"))
    try:
        for rnd in range(ROUNDS + 1):
            for workers in WORKER_COUNTS:
                elapsed, digest = _render(root, workers)
                if rnd > 0:
                    best[workers] = min(best[workers], elapsed)
                digests[workers] = digest
                # Byte identity holds on every round, not just the best.
                assert digest == digests[1], (
                    f"parallel render at {workers} workers diverged from serial"
                )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    timings = {
        str(w): {
            "best_s": best[w],
            "frames_per_s": SCALE.frames / best[w],
            "speedup_vs_serial": best[1] / best[w],
        }
        for w in WORKER_COUNTS
    }
    speedup4 = best[1] / best[4]
    enforced = cpus >= 4
    if enforced:
        assert speedup4 >= MIN_SPEEDUP, (
            f"parallel render speedup regressed: {speedup4:.2f}x < "
            f"{MIN_SPEEDUP}x at 4 workers ({timings})"
        )

    ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "render_parallel",
                "scale": SCALE.name,
                "frames": SCALE.frames,
                "cpus": cpus,
                # What `render --jobs N` / $REPRO_JOBS=N runs here: the
                # request clamped to the available CPUs (1 = serial).
                "effective_jobs": {str(w): clamp_render_jobs(w) for w in WORKER_COUNTS},
                "min_speedup": MIN_SPEEDUP,
                "speedup_floor_enforced": enforced,
                "rounds": ROUNDS,
                "byte_identical": True,
                "workers": timings,
            },
            indent=2,
        )
        + "\n"
    )

    # Register the 4-worker render with pytest-benchmark for trend tracking.
    reg_root = Path(tempfile.mkdtemp(prefix="repro-bench-render-"))
    try:
        benchmark.pedantic(
            lambda: _render(reg_root, 4), rounds=1, iterations=1
        )
    finally:
        shutil.rmtree(reg_root, ignore_errors=True)
