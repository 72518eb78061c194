"""Trace production and caching.

Rendering is the expensive step; this module renders each (workload, scale,
filter) combination once, memoizes it in process memory, and persists it to
a disk cache of ``<key>.stream`` trace directories (``.trace_cache/`` at
the repository root, overridable with ``$REPRO_TRACE_CACHE``; set it to
``off`` to disable). The cache key embeds a scene version constant — bump
it when scene builders change so stale traces are never reused.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import warnings
from pathlib import Path

from repro.errors import CorruptTraceWarning, TraceCorruptionError
from repro.raster.parallel import render_stream_parallel
from repro.raster.pipeline import Renderer, RenderOptions
from repro.raster.rasterizer import RasterOrder
from repro.reliability.supervisor import SupervisorConfig, default_jobs
from repro.scenes import WORKLOAD_BUILDERS
from repro.texture.sampler import FilterMode
from repro.trace.trace import Trace, TraceMeta
from repro.trace.stream import (
    DEFAULT_CHUNK_REFS,
    StreamingTrace,
    StreamTraceWriter,
    save_stream,
)
from repro.experiments.config import Scale

__all__ = [
    "get_trace",
    "render_trace",
    "render_trace_stream",
    "resolve_render_jobs",
    "clamp_render_jobs",
    "clear_memory_cache",
]

#: Bump when scene builders or the rasterizer change behaviourally.
SCENE_VERSION = 4

_memory_cache: dict[tuple, Trace] = {}


def clear_memory_cache() -> None:
    """Drop in-process cached traces (tests use this to bound memory)."""
    _memory_cache.clear()


def _cache_dir() -> Path | None:
    env = os.environ.get("REPRO_TRACE_CACHE", "").strip()
    if env.lower() == "off":
        return None
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".trace_cache"


def _variant_suffix(z_first: bool, tiled: bool) -> str:
    parts = []
    if z_first:
        parts.append("zfirst")
    if tiled:
        parts.append("tiled")
    return "+" + "+".join(parts) if parts else ""


def _cache_key(
    workload: str, scale: Scale, mode: FilterMode, z_first: bool, tiled: bool
) -> str:
    return (
        f"v{SCENE_VERSION}_{workload}_{scale.width}x{scale.height}"
        f"_f{scale.frames}_d{scale.detail:g}_{mode.value}"
        f"{_variant_suffix(z_first, tiled).replace('+', '_')}"
    )


def _build_renderer(
    workload: str, scale: Scale, mode: FilterMode, z_first: bool, tiled: bool
):
    try:
        builder = WORKLOAD_BUILDERS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {sorted(WORKLOAD_BUILDERS)}"
        ) from None
    wl = builder(detail=scale.detail)
    options = RenderOptions(
        width=scale.width,
        height=scale.height,
        filter_mode=mode,
        z_before_texture=z_first,
        order=RasterOrder.TILED if tiled else RasterOrder.SCANLINE,
    )
    return Renderer(wl.scene.instances, wl.scene.manager, options), wl


def _renderer_factory(workload, scale, mode, z_first, tiled):
    """Module-level (picklable) scene build for parallel render workers.

    Returns ``(Renderer, cameras)``; deterministic, so every worker
    process rebuilding it sees the same scene and camera path.
    """
    renderer, wl = _build_renderer(workload, scale, mode, z_first, tiled)
    return renderer, wl.cameras(scale.frames)


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def clamp_render_jobs(jobs: int) -> int:
    """Render workers worth starting: at most one per available CPU.

    Workers sharing a core only add start-up and merge cost (4 on a 1-CPU
    runner rendered at about half the serial speed); 1 renders serially.
    """
    return max(1, min(jobs, available_cpus()))


def resolve_render_jobs() -> int:
    """Render worker count: ``$REPRO_JOBS``, else 1.

    ``$REPRO_JOBS`` drives both the sweep supervisor and rendering, with
    strict typed validation (:class:`~repro.errors.ConfigError` on junk),
    clamped by :func:`clamp_render_jobs`. Inside a daemon worker process
    (a sweep worker rendering a missing trace) this always returns 1 —
    daemons cannot spawn children.
    """
    if multiprocessing.current_process().daemon:
        return 1
    if os.environ.get("REPRO_JOBS", "").strip():
        return clamp_render_jobs(default_jobs())
    return 1


def render_trace(
    workload: str,
    scale: Scale,
    mode: FilterMode,
    z_first: bool = False,
    tiled: bool = False,
    workers: int | None = None,
) -> Trace:
    """Render a trace from scratch (no caching).

    ``z_first`` enables the §6 z-before-texture optimization; ``tiled``
    switches rasterization to tiled fragment order (the Hakura ablation).
    Variant traces carry a suffixed workload name so downstream simulation
    caches never confuse them with baseline traces.

    ``workers`` > 1 renders frame shards in supervised parallel processes
    (:mod:`repro.raster.parallel`; default from ``$REPRO_JOBS``) —
    frames are independent, so results are bit-identical to a serial
    render. Use it to make ``Scale.paper()`` renders practical.
    """
    workers = resolve_render_jobs() if workers is None else max(workers, 1)
    meta = TraceMeta(
        workload=workload + _variant_suffix(z_first, tiled),
        width=scale.width,
        height=scale.height,
        filter_mode=mode.value,
        n_frames=scale.frames,
    )
    if workers > 1 and scale.frames > 1:
        # Render through the supervised shard pipeline into a scratch
        # stream, then materialize: stream frames are views of its mmap'd
        # chunks, so the frames are copied to outlive the scratch directory.
        tmp = tempfile.mkdtemp(prefix="repro-render-")
        try:
            stream_path = Path(tmp) / "trace.stream"
            render_stream_parallel(
                _renderer_factory,
                (workload, scale, mode, z_first, tiled),
                meta,
                stream_path,
                jobs=workers,
            )
            frames = StreamingTrace(stream_path).materialize().frames
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        # The texture set comes from a local (cheap) scene build.
        _, wl = _build_renderer(workload, scale, mode, z_first, tiled)
        return Trace(meta=meta, frames=frames, textures=wl.scene.manager.textures)

    renderer, wl = _build_renderer(workload, scale, mode, z_first, tiled)
    frames = [
        out.trace for out in renderer.iter_frames(wl.cameras(scale.frames))
    ]
    return Trace(meta=meta, frames=frames, textures=wl.scene.manager.textures)


def render_trace_stream(
    workload: str,
    scale: Scale,
    mode: FilterMode,
    path: str | os.PathLike,
    z_first: bool = False,
    tiled: bool = False,
    workers: int | None = None,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    supervisor: SupervisorConfig | None = None,
) -> StreamingTrace:
    """Render straight to a streamed trace directory in bounded memory.

    The out-of-core twin of :func:`render_trace` for paper-scale renders:
    each frame goes from the renderer into the chunked on-disk stream and
    is dropped, so peak RSS is one frame plus one chunk regardless of
    animation length. With ``workers`` > 1 frame shards render in
    supervised parallel processes (:mod:`repro.raster.parallel`) whose
    per-shard streams merge in frame order. Either way the result is
    byte-identical to ``save_stream(render_trace(...))`` — manifest CRCs
    included.
    """
    workers = resolve_render_jobs() if workers is None else max(workers, 1)
    meta = TraceMeta(
        workload=workload + _variant_suffix(z_first, tiled),
        width=scale.width,
        height=scale.height,
        filter_mode=mode.value,
        n_frames=scale.frames,
    )
    if workers > 1 and scale.frames > 1:
        render_stream_parallel(
            _renderer_factory,
            (workload, scale, mode, z_first, tiled),
            meta,
            path,
            jobs=workers,
            chunk_refs=chunk_refs,
            supervisor=supervisor,
        )
        return StreamingTrace(path)
    renderer, wl = _build_renderer(workload, scale, mode, z_first, tiled)
    with StreamTraceWriter(
        path, meta, wl.scene.manager.textures, chunk_refs=chunk_refs
    ) as writer:
        renderer.write_frames(wl.cameras(scale.frames), writer)
    return StreamingTrace(path)


def quarantine_trace(path: Path) -> Path:
    """Move a damaged cache entry under ``<cache>/quarantine/`` for autopsy.

    Keeps the evidence (instead of deleting it) while guaranteeing the
    poisoned trace directory can never be read as a cache hit again.
    Returns the quarantine destination.
    """
    qdir = path.parent / "quarantine"
    qdir.mkdir(parents=True, exist_ok=True)
    dest = qdir / path.name
    n = 1
    while dest.exists():
        dest = qdir / f"{path.stem}.{n}{path.suffix}"
        n += 1
    os.replace(path, dest)
    return dest


def get_trace(
    workload: str,
    scale: Scale,
    mode: FilterMode,
    z_first: bool = False,
    tiled: bool = False,
) -> Trace:
    """Fetch a trace through the memory and disk caches.

    A corrupted or truncated disk-cache entry is quarantined (moved under
    ``.trace_cache/quarantine/``) with a :class:`CorruptTraceWarning`, and
    the trace is transparently re-rendered — a damaged cache never fails
    or skews an experiment run.
    """
    key = (workload, scale, mode, z_first, tiled)
    if key in _memory_cache:
        return _memory_cache[key]

    cache_dir = _cache_dir()
    path = None
    if cache_dir is not None:
        key_name = _cache_key(workload, scale, mode, z_first, tiled)
        path = cache_dir / f"{key_name}.stream"
        if path.exists():
            try:
                # Copies every frame: the memory cache must not pin mmaps
                # of a directory that a re-render may replace.
                trace = StreamingTrace(path).materialize()
            except TraceCorruptionError as exc:
                dest = quarantine_trace(path)
                warnings.warn(
                    f"cached trace {path.name} is corrupted ({exc.detail}); "
                    f"quarantined to {dest} and re-rendering",
                    CorruptTraceWarning,
                    stacklevel=2,
                )
            else:
                _memory_cache[key] = trace
                return trace

    trace = render_trace(workload, scale, mode, z_first=z_first, tiled=tiled)
    _memory_cache[key] = trace
    if path is not None:
        save_stream(trace, path)  # atomic: tmp dir + os.replace
    return trace
