"""One repetition of the pipeline benchmark, run in a fresh process.

``run.py`` starts this script once per rep and reads the JSON object it
prints as its last line. The rep drives the entry points a user drives:

1. ``WORKLOAD_BUILDERS[scene](detail, seed=seed)`` builds the scene;
2. ``Renderer.iter_frames`` renders the frames;
3. ``StreamTraceWriter`` writes them to a ``.stream`` directory;
4. ``open_trace`` opens the stream;
5. ``MultiLevelTextureCache(config, space).run_trace`` runs once per
   configured hierarchy, every cache cold at frame 0.

Timestamps are CLOCK_MONOTONIC seconds, the clock the parent reads before
it starts the process, so ``setup_s`` spans interpreter start, imports,
scene build, renderer, camera path and configs. After the last simulated
stat the rep checks its outputs: the stream's CRCs, a digest of every
simulated stat plus the stream fingerprint, and the count invariants of
each frame under each config.

With ``--trace 1`` the rep wraps public calls of each layer
(:class:`spans.Tracer`) and reports per-layer self times and counts;
without it nothing is wrapped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.hierarchy import (
    MultiLevelTextureCache,
    TraceRunResult,
    frames_to_columns,
)
from repro.raster import pipeline as raster_pipeline
from repro.raster.pipeline import Renderer, RenderOptions
from repro.scenes import WORKLOAD_BUILDERS
from repro.texture.tiling import AddressSpace
from repro.trace.stream import StreamingTrace, StreamTraceWriter, open_trace
from repro.trace.trace import TraceMeta

from spans import Span, Tracer, self_times
from workloads import WORKLOADS, Workload, smoke

__all__ = ["PipelineRun", "run_pipeline", "check", "digest_columns", "layer_metrics"]


@dataclass
class PipelineRun:
    """What one pass through the pipeline produced, plus its timestamps."""

    labels: list[str]
    results: list[TraceRunResult]
    trace: StreamingTrace
    ref_counts: list[int]
    build_s: float
    t_first: float
    t_written: float
    t_done: float


def _no_span(name: str):
    return nullcontext()


# Work counts taken at the wrapped boundaries.
def _count_fragments(args, batch) -> dict:
    return {"fragments": len(batch.xs)}


def _count_texels(args, grid) -> dict:
    return {"texel_reads": int(grid.size)}


def _count_collapse(args, result) -> dict:
    return {"refs_in": len(args[0]), "refs_out": len(result[0])}


def _install_raster_wrappers(tracer: Tracer) -> None:
    """Wrap the module-level names the renderer calls per frame."""
    for attr, count in (
        ("rasterize_triangles", _count_fragments),
        ("clip_triangle_near", None),
        ("footprint_tiles_grid", _count_texels),
        ("collapse_runs", _count_collapse),
    ):
        tracer.install(raster_pipeline, attr, attr, count)


def _install_sim_wrappers(tracer: Tracer, sim: MultiLevelTextureCache) -> None:
    """Wrap one simulator's per-frame calls into each cache level."""
    tracer.install(sim, "run_trace", "MultiLevelTextureCache.run_trace")
    tracer.install(
        sim, "run_frame", "MultiLevelTextureCache.run_frame", per_frame=True
    )
    tracer.install(sim.space, "l1_set_indices", "AddressSpace.l1_set_indices")
    tracer.install(sim.space, "l2_addresses", "AddressSpace.l2_addresses")
    tracer.install(sim.l1, "access_frame", "L1CacheSim.access_frame")
    if sim.tlb is not None:
        tracer.install(sim.tlb, "access_frame", "TextureTableTLB.access_frame")
    if sim.l2 is not None:
        tracer.install(sim.l2, "access_blocks", "L2TextureCache.access_blocks")
    if sim.vt is not None:
        tracer.install(sim.vt, "run_frame", "VirtualTextureSystem.run_frame")


def run_pipeline(
    wl: Workload, seed: int, stream_path: Path, tracer: Tracer | None = None
) -> PipelineRun:
    """Build, render to ``stream_path``, and simulate every config."""
    if tracer is not None:
        _install_raster_wrappers(tracer)
    t0 = time.monotonic()
    built = WORKLOAD_BUILDERS[wl.scene](detail=wl.detail, seed=seed)
    build_s = time.monotonic() - t0
    textures = built.scene.manager.textures
    renderer = Renderer(
        built.scene.instances,
        built.scene.manager,
        RenderOptions(width=wl.width, height=wl.height, filter_mode=wl.filter_mode),
    )
    cameras = built.cameras(wl.frames)
    configs = wl.configs(AddressSpace(textures), wl)
    meta = TraceMeta(
        workload=built.name,
        width=wl.width,
        height=wl.height,
        filter_mode=wl.filter_mode.value,
        n_frames=wl.frames,
    )
    span = _no_span
    if tracer is not None:
        span = tracer.span
        tracer.install(
            renderer, "render_frame", "Renderer.render_frame", per_frame=True
        )

    ref_counts: list[int] = []
    results: list[TraceRunResult] = []
    t_first = time.monotonic()
    with span("pipeline"):
        with StreamTraceWriter(stream_path, meta, textures) as writer:
            if tracer is not None:
                tracer.install(
                    writer, "append_frame", "StreamTraceWriter.append_frame"
                )
                tracer.install(writer, "close", "StreamTraceWriter.close")
            for out in renderer.iter_frames(cameras):
                ref_counts.append(len(out.trace.refs))
                writer.append_frame(out.trace)
        t_written = time.monotonic()
        with span("open_trace"):
            trace = open_trace(stream_path)
        for label, config in configs:
            if tracer is not None:
                tracer.set_config(label)
            with span("MultiLevelTextureCache.__init__"):
                sim = MultiLevelTextureCache(config, trace.address_space)
            if tracer is not None:
                _install_sim_wrappers(tracer, sim)
            results.append(sim.run_trace(trace))
    t_done = time.monotonic()
    return PipelineRun(
        labels=[label for label, _ in configs],
        results=results,
        trace=trace,
        ref_counts=ref_counts,
        build_s=build_s,
        t_first=t_first,
        t_written=t_written,
        t_done=t_done,
    )


def digest_columns(result: TraceRunResult) -> str:
    """sha256 over one simulation's per-frame stats (``frames_to_columns``)."""
    h = hashlib.sha256()
    for name, arr in sorted(frames_to_columns(result.frames).items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _frame_ok(f, refs: int, reads: int) -> bool:
    """The count invariants of one simulated frame."""
    ok = f.l1_accesses == refs and f.texel_reads == reads
    if f.l2 is not None:
        ok = ok and f.l2.accesses == f.l1_misses
        ok = ok and (
            f.l2.full_hits + f.l2.partial_hits + f.l2.full_misses == f.l2.accesses
        )
    if f.tlb is not None:
        ok = ok and f.tlb.accesses == f.l1_misses
    if f.vt is not None:
        ok = ok and f.vt.stalls == 0
    return ok


def _model_counts(run: PipelineRun) -> dict:
    """The modelled design's outputs, summed over every config."""
    frames = [f for res in run.results for f in res.frames]
    l2 = [f.l2 for f in frames if f.l2 is not None]
    tlb = [f.tlb for f in frames if f.tlb is not None]
    vt = [f.vt for f in frames if f.vt is not None]
    return {
        "frames": len(frames),
        "texel_reads": sum(f.texel_reads for f in frames),
        "l1_accesses": sum(f.l1_accesses for f in frames),
        "l1_misses": sum(f.l1_misses for f in frames),
        "tlb_accesses": sum(t.accesses for t in tlb),
        "tlb_hits": sum(t.hits for t in tlb),
        "l2_accesses": sum(r.accesses for r in l2),
        "l2_full_hits": sum(r.full_hits for r in l2),
        "l2_partial_hits": sum(r.partial_hits for r in l2),
        "l2_host_downloads": sum(r.host_downloads for r in l2),
        "agp_bytes": sum(f.agp_bytes for f in frames),
        "vt_page_fetches": sum(v.completed_fetches for v in vt),
        "vt_pages_degraded": sum(v.degraded_pages for v in vt),
        "vt_stalled_frames": sum(1 for v in vt if v.stalls > 0),
    }


def check(run: PipelineRun) -> dict:
    """Check one rep's outputs; returns digests and per-op failures.

    An op is one frame rendered, or one frame simulated under one config.
    A rendered frame fails when the stream fails its CRCs or holds a
    different number of refs than the renderer emitted; a simulated frame
    fails a count invariant. Digest comparison across reps and against
    the pinned values is the parent's job.
    """
    trace = run.trace
    n = len(run.ref_counts)
    stream_refs = np.diff(trace.frame_starts).tolist()
    stream_reads = [int(f.weights.sum()) for f in trace.frames]
    verify_ok = trace.verify().ok
    render_failed = sum(
        1
        for i in range(n)
        if not verify_ok or i >= len(stream_refs) or run.ref_counts[i] != stream_refs[i]
    )
    digest = {"trace": f"{trace.fingerprint():08x}"}
    sim_failed = {}
    for label, res in zip(run.labels, run.results):
        digest[label] = digest_columns(res)
        sim_failed[label] = sum(
            1
            for f, refs, reads in zip(res.frames, stream_refs, stream_reads)
            if not _frame_ok(f, refs, reads)
        ) + max(n - len(res.frames), 0)
    stream_bytes = sum(p.stat().st_size for p in trace.path.iterdir() if p.is_file())
    return {
        "n_frames": n,
        "labels": run.labels,
        "digest": digest,
        "render_failed": render_failed,
        "sim_failed": sim_failed,
        "stream_mb": stream_bytes / 1e6,
        "stream_chunks": trace.n_chunks,
        "model": _model_counts(run),
    }


#: Span name -> per-layer time metric (self time, summed over spans).
SPAN_METRICS = {
    "Renderer.render_frame": "raster.pipeline.self_s",
    "clip_triangle_near": "raster.clipping.s",
    "rasterize_triangles": "raster.batch.s",
    "footprint_tiles_grid": "texture.sampler.s",
    "collapse_runs": "trace.events.s",
    "StreamTraceWriter.append_frame": "trace.stream.write_s",
    "StreamTraceWriter.close": "trace.stream.write_s",
    "open_trace": "trace.stream.read_s",
    "MultiLevelTextureCache.run_trace": "trace.stream.read_s",
    "MultiLevelTextureCache.__init__": "core.hierarchy.self_s",
    "MultiLevelTextureCache.run_frame": "core.hierarchy.self_s",
    "AddressSpace.l1_set_indices": "texture.tiling.l1_sets_s",
    "AddressSpace.l2_addresses": "texture.tiling.l2_addr_s",
    "L1CacheSim.access_frame": "core.l1_cache.s",
    "TextureTableTLB.access_frame": "core.tlb.s",
    "L2TextureCache.access_blocks": "core.l2_cache.s",
    "VirtualTextureSystem.run_frame": "vt.system.s",
    "pipeline": "pipeline.unattributed_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], run: PipelineRun, checked: dict) -> dict:
    """Per-layer metrics of one traced rep.

    Every time is a self time; every ``_s`` metric of the pipeline also
    gets a ``.share`` of the traced ``pipeline_s``. Layers a workload does
    not run report zero time and zero counts.
    """
    selfs = self_times(spans)
    secs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        secs[SPAN_METRICS[span.name]] += selfs[span.id] / 1e9
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[key] += value
    pipeline_s = run.t_done - run.t_first
    model = checked["model"]
    mb = checked["stream_mb"]
    out: dict[str, float] = {name: secs[name] for name in set(SPAN_METRICS.values())}
    for name in list(out):
        out[f"{name}.share"] = _ratio(out[name], pipeline_s)
    n_frames = max(model["frames"], 1)
    out.update(
        {
            "scenes.build_s": run.build_s,
            "pipeline.traced_s": pipeline_s,
            "raster.clipping.calls": calls["clip_triangle_near"],
            "raster.batch.fragments": counts["fragments"],
            "raster.batch.mfrags_per_s": _ratio(
                counts["fragments"] / 1e6, secs["raster.batch.s"]
            ),
            "texture.sampler.calls": calls["footprint_tiles_grid"],
            "texture.sampler.texel_reads": counts["texel_reads"],
            "trace.events.collapse_ratio": _ratio(
                counts["refs_out"], counts["refs_in"]
            ),
            "trace.stream.mb": mb,
            "trace.stream.chunks": checked["stream_chunks"],
            "trace.stream.write_mb_per_s": _ratio(mb, secs["trace.stream.write_s"]),
            "trace.stream.read_mb_per_s": _ratio(
                mb * len(run.labels), secs["trace.stream.read_s"]
            ),
            "core.l1_cache.accesses": model["l1_accesses"],
            "core.l1_cache.hit_rate": 1.0
            - _ratio(model["l1_misses"], model["texel_reads"]),
            "core.l1_cache.maccesses_per_s": _ratio(
                model["l1_accesses"] / 1e6, secs["core.l1_cache.s"]
            ),
            "core.tlb.accesses": model["tlb_accesses"],
            "core.tlb.hit_rate": _ratio(model["tlb_hits"], model["tlb_accesses"]),
            "core.l2_cache.accesses": model["l2_accesses"],
            "core.l2_cache.full_hit_rate": _ratio(
                model["l2_full_hits"], model["l2_accesses"]
            ),
            "core.l2_cache.partial_hit_rate": _ratio(
                model["l2_partial_hits"], model["l2_accesses"]
            ),
            "core.l2_cache.host_downloads": model["l2_host_downloads"],
            "core.l2_cache.agp_kb_per_frame": (
                model["agp_bytes"] / 1024 / n_frames if model["l2_accesses"] else 0.0
            ),
            "vt.system.page_fetches": model["vt_page_fetches"],
            "vt.system.pages_degraded": model["vt_pages_degraded"],
            "vt.system.stall_free_rate": 1.0
            - model["vt_stalled_frames"] / n_frames,
        }
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--stream", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="JSONL output of a traced rep")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = smoke(wl)
    tracer = Tracer(args.workload, args.rep) if args.trace else None
    run = run_pipeline(wl, args.seed, args.stream, tracer)
    installed = []
    if tracer is not None:
        installed = tracer.installed
        tracer.uninstall()
    record = check(run)
    record.update(
        build_s=run.build_s,
        t_first=run.t_first,
        t_written=run.t_written,
        t_done=run.t_done,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        wrappers=installed,
    )
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans, run, record)
        if args.spans is not None:
            tracer.write_jsonl(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
