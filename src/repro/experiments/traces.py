"""Trace production and caching.

Rendering is the expensive step, so each (workload, scale, filter)
combination is rendered once, straight into a ``<key>.stream`` slot of the
trace cache (``.trace_cache/`` at the repository root, overridable with
``$REPRO_TRACE_CACHE``; ``off`` renders into a per-process scratch
directory removed at exit). :func:`get_trace` hands out that slot's
:class:`~repro.trace.stream.StreamingTrace`, whose frames are views of
the mmap'd chunks, so no experiment holds a copy of a trace in RAM. The
cache key embeds a scene version constant — bump it when scene builders
change so stale traces are never reused.
"""

from __future__ import annotations

import multiprocessing
import os
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
from repro.trace.trace import TraceMeta
from repro.trace.stream import DEFAULT_CHUNK_REFS, StreamingTrace
from repro.experiments.config import Scale

__all__ = [
    "get_trace",
    "render_trace_stream",
    "resolve_render_jobs",
    "clamp_render_jobs",
    "clear_memory_cache",
]

#: Bump when scene builders or the rasterizer change behaviourally.
SCENE_VERSION = 4

_memory_cache: dict[tuple, StreamingTrace] = {}
_scratch: tempfile.TemporaryDirectory | None = None


def clear_memory_cache() -> None:
    """Forget the traces opened in this process (the slots stay on disk)."""
    _memory_cache.clear()


def _cache_dir() -> Path:
    global _scratch
    env = os.environ.get("REPRO_TRACE_CACHE", "").strip()
    if env.lower() == "off":
        if _scratch is None:
            _scratch = tempfile.TemporaryDirectory(prefix="repro-traces-")
        return Path(_scratch.name)
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


def _renderer_factory(workload, scale, mode, z_first, tiled):
    """Module-level (picklable) scene build for :func:`render_stream_parallel`.

    Returns ``(Renderer, cameras)``; deterministic, so every worker
    process rebuilding it sees the same scene and camera path.
    """
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
    renderer = Renderer(wl.scene.instances, wl.scene.manager, options)
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
    """Render a trace from scratch (no caching) into a ``.stream`` directory.

    ``z_first`` enables the §6 z-before-texture optimization; ``tiled``
    switches rasterization to tiled fragment order (the Hakura ablation).
    Variant traces carry a suffixed workload name so downstream simulation
    caches never confuse them with baseline traces.

    Each frame goes from the renderer into the chunked on-disk stream and
    is dropped, so peak RSS is one frame plus one chunk regardless of
    animation length. With ``workers`` > 1 (default from ``$REPRO_JOBS``)
    frame shards render in supervised parallel processes
    (:mod:`repro.raster.parallel`) whose per-shard streams merge in frame
    order; frames are independent, so the directory is byte-identical to a
    serial render, manifest CRCs included.
    """
    workers = resolve_render_jobs() if workers is None else max(workers, 1)
    meta = TraceMeta(
        workload=workload + _variant_suffix(z_first, tiled),
        width=scale.width,
        height=scale.height,
        filter_mode=mode.value,
        n_frames=scale.frames,
    )
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
) -> StreamingTrace:
    """The trace of this cache slot, rendered into it on a miss.

    A hit is opened and fingerprinted up front, which CRC-checks every
    chunk before any experiment reads one. A corrupted or truncated entry
    is quarantined (moved under ``<cache>/quarantine/``) with a
    :class:`CorruptTraceWarning`, and the trace is transparently
    re-rendered — a damaged cache never fails or skews an experiment run.
    """
    key = (workload, scale, mode, z_first, tiled)
    if key in _memory_cache:
        return _memory_cache[key]

    key_name = _cache_key(workload, scale, mode, z_first, tiled)
    path = _cache_dir() / f"{key_name}.stream"
    if path.exists():
        try:
            trace = StreamingTrace(path)
            trace.fingerprint()
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

    # Atomic publish: rendered under a tmp sibling, then one os.replace.
    trace = render_trace_stream(
        workload, scale, mode, path, z_first=z_first, tiled=tiled
    )
    _memory_cache[key] = trace
    return trace
