"""Bench target for the batched rasterization engine.

Renders bench-scale City and Village animations twice — once through the
triangle-batched engine (:mod:`repro.raster.batch`), once through the
per-triangle reference of the test oracle (:mod:`tests.oracle`) — and
asserts the engine pairing's two contracts:
identical per-frame traces on both workloads, and >= 3x trace-generation
speedup on each.

Timing methodology: paper-style renders are numpy-heavy and allocator
state drifts between processes, so a single sequential comparison is
noisy. The engines are interleaved round by round in one process; round
zero is discarded as warmup and each engine keeps its best round. The
ratio of bests is stable to well under the assertion margin.

Timings and frames/sec land in ``BENCH_raster.json`` at the repo root so
successive runs leave a trajectory of rasterization throughput.

The comparison always runs at a fixed bench scale (not ``$REPRO_SCALE``):
the speedup floor must measure the engines, not the harness.
"""

import json
import time
from pathlib import Path

from repro.raster.pipeline import Renderer, RenderOptions
from repro.scenes import WORKLOAD_BUILDERS
from repro.texture.sampler import FilterMode

from tests.oracle import ReferenceRenderer

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_raster.json"
MIN_SPEEDUP = 3.0
ROUNDS = 3

# Bench configurations: resolution and tessellation detail chosen so both
# scenes carry paper-like small-triangle density (the regime the batched
# engine exists for) while keeping a CI-friendly runtime.
CONFIGS = {
    "city": {"detail": 2.0, "width": 320, "height": 240, "frames": 2},
    "village": {"detail": 8.0, "width": 320, "height": 240, "frames": 2},
}


def _measure(workload, cfg):
    wl = WORKLOAD_BUILDERS[workload](detail=cfg["detail"])
    opts = RenderOptions(
        width=cfg["width"], height=cfg["height"], filter_mode=FilterMode.BILINEAR
    )
    cams = wl.cameras(cfg["frames"])
    engines = {
        "reference": ReferenceRenderer(wl.scene.instances, wl.scene.manager, opts),
        "batched": Renderer(wl.scene.instances, wl.scene.manager, opts),
    }
    best = {name: float("inf") for name in engines}
    frames = {}
    for rnd in range(ROUNDS + 1):
        for name, engine in engines.items():
            start = time.perf_counter()
            outs = list(engine.iter_frames(cams))
            elapsed = time.perf_counter() - start
            if rnd > 0:
                best[name] = min(best[name], elapsed)
            frames[name] = outs
    for a, b in zip(frames["reference"], frames["batched"]):
        assert (a.trace.refs == b.trace.refs).all(), workload
        assert (a.trace.weights == b.trace.weights).all(), workload
        assert a.trace.n_fragments == b.trace.n_fragments, workload
    n_frames = cfg["frames"]
    return {
        "reference_s": best["reference"],
        "batched_s": best["batched"],
        "speedup": best["reference"] / best["batched"],
        "reference_fps": n_frames / best["reference"],
        "batched_fps": n_frames / best["batched"],
        "fragments": sum(f.trace.n_fragments for f in frames["batched"]),
    }


def test_batched_raster_speedup_and_identity(benchmark):
    timings = {w: _measure(w, cfg) for w, cfg in CONFIGS.items()}

    for workload, t in timings.items():
        assert t["speedup"] >= MIN_SPEEDUP, (
            f"trace-generation speedup regressed on {workload}: "
            f"{t['speedup']:.2f}x < {MIN_SPEEDUP}x ({t})"
        )

    ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "raster",
                "configs": CONFIGS,
                "min_speedup": MIN_SPEEDUP,
                "rounds": ROUNDS,
                "workloads": timings,
            },
            indent=2,
        )
        + "\n"
    )

    # Register the batched City render with pytest-benchmark for trend
    # tracking.
    wl = WORKLOAD_BUILDERS["city"](detail=CONFIGS["city"]["detail"])
    opts = RenderOptions(width=CONFIGS["city"]["width"],
                         height=CONFIGS["city"]["height"],
                         filter_mode=FilterMode.BILINEAR)
    cams = wl.cameras(CONFIGS["city"]["frames"])
    renderer = Renderer(wl.scene.instances, wl.scene.manager, opts)
    benchmark.pedantic(
        lambda: list(renderer.iter_frames(cams)), rounds=1, iterations=1
    )
