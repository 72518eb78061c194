"""Parallel frame rendering across the self-healing worker pool.

Frames are independent given the scene: the camera path is deterministic,
every frame's trace depends only on its own camera pose, and the chunked
``.stream`` layout depends only on the concatenated frame stream (chunk
boundaries fall at fixed global offsets, never at frame boundaries). So a
camera path can be sharded into contiguous frame ranges, each range
rendered in its own worker process, and the shard streams merged back in
frame order — and the merged directory is **byte-identical** to a serial
``Renderer.write_frames()`` render through the same writer: same chunk
files, same index arrays, same manifest CRCs.

The workers run under the generic self-healing supervisor
(:mod:`repro.reliability.supervisor`) — the same watchdogs, dead-worker
replacement, requeue-with-backoff, heartbeat journal, and serial
degradation the sweep engine uses — so a chaos-killed or OOM-killed
render worker heals automatically and the merged output is still exact.

Each worker builds the scene once (:meth:`_ShardRunner.setup`), renders
its frame ranges through :class:`~repro.trace.stream.StreamTraceWriter`
into a per-shard ``.stream`` directory (atomic publish: a shard either
exists completely or not at all), and reports the shard path. A retried
shard whose previous attempt already published is reused, not re-rendered
— the render analogue of the sweep store's persist-before-report. The
parent merges shards in index order by re-appending their frames into the
final writer, then deletes the shard root.

The scene itself is *not* pickled to workers: callers pass a module-level
``factory(*factory_args) -> (Renderer, cameras)`` and each process
rebuilds the (deterministic) scene locally, which keeps task payloads
tiny and works under both fork and spawn start methods.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.reliability.supervisor import (
    SupervisorConfig,
    TaskRunner,
    supervise_tasks,
)
from repro.trace.stream import (
    DEFAULT_CHUNK_REFS,
    StreamingTrace,
    StreamTraceWriter,
)
from repro.trace.trace import TraceMeta

__all__ = ["ShardSpec", "plan_shards", "render_stream_parallel"]


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous frame range ``[lo, hi)`` of the camera path."""

    index: int
    lo: int
    hi: int

    @property
    def n_frames(self) -> int:
        return self.hi - self.lo


def plan_shards(n_frames: int, jobs: int) -> list[ShardSpec]:
    """Split ``n_frames`` into contiguous, near-equal shards.

    Aims for ~2 shards per worker so a straggler (or a chaos-killed
    attempt) re-renders a fraction of one worker's share, not all of it.
    The split never affects output bytes — only scheduling granularity.
    """
    n_shards = max(1, min(n_frames, jobs * 2))
    bounds = [i * n_frames // n_shards for i in range(n_shards + 1)]
    return [
        ShardSpec(index=i, lo=bounds[i], hi=bounds[i + 1])
        for i in range(n_shards)
        if bounds[i + 1] > bounds[i]
    ]


class _ShardRunner(TaskRunner):
    """Task body for render shards: payload = :class:`ShardSpec`.

    Carries only picklable configuration; the renderer and camera path are
    rebuilt once per worker process in :meth:`setup`.
    """

    def __init__(
        self,
        factory: Callable,
        factory_args: tuple,
        meta: TraceMeta,
        shard_root: str,
        chunk_refs: int,
    ):
        self.factory = factory
        self.factory_args = factory_args
        self.meta = meta
        self.shard_root = shard_root
        self.chunk_refs = chunk_refs
        self._renderer = None
        self._cameras: Sequence | None = None

    def setup(self) -> None:
        self._renderer, self._cameras = self.factory(*self.factory_args)

    def task_key(self, payload: ShardSpec) -> str:
        # Stable across runs and scheduling orders (never derived from the
        # per-run shard root), so seeded chaos kills the same shards with
        # the same fates every run.
        m = self.meta
        return (
            f"render:{m.workload}:{m.width}x{m.height}:{m.filter_mode}"
            f":{payload.lo}-{payload.hi}"
        )

    def shard_path(self, payload: ShardSpec) -> Path:
        return Path(self.shard_root) / f"shard_{payload.index:05d}.stream"

    def run(self, payload: ShardSpec) -> str:
        path = self.shard_path(payload)
        if path.is_dir():
            # A previous attempt published this shard (atomically, so it is
            # complete); rendering is deterministic, so reuse it.
            try:
                StreamingTrace(path)
                return str(path)
            except Exception:
                shutil.rmtree(path, ignore_errors=True)
        shard_meta = TraceMeta(
            workload=self.meta.workload,
            width=self.meta.width,
            height=self.meta.height,
            filter_mode=self.meta.filter_mode,
            n_frames=payload.n_frames,
        )
        textures = self._renderer.manager.textures
        with StreamTraceWriter(
            path, shard_meta, textures, chunk_refs=self.chunk_refs
        ) as writer:
            self._renderer.write_frames(
                self._cameras[payload.lo : payload.hi], writer
            )
        return str(path)


def render_stream_parallel(
    factory: Callable,
    factory_args: tuple,
    meta: TraceMeta,
    path: str | os.PathLike,
    *,
    jobs: int,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    supervisor: SupervisorConfig | None = None,
) -> Path:
    """Render a camera path to a ``.stream`` directory across ``jobs`` workers.

    Args:
        factory: module-level callable (picklable) returning
            ``(Renderer, cameras)`` — the scene build each process runs.
        factory_args: arguments for ``factory``; must be picklable.
        meta: trace metadata; ``meta.n_frames`` frames are rendered.
        path: destination ``.stream`` directory (atomic publish).
        jobs: worker processes; ``1`` renders serially in-process.
        chunk_refs: stream chunk length (must match a serial render's for
            byte-identity, which it does by default).
        supervisor: failure posture; None uses the environment defaults
            (``$REPRO_TASK_TIMEOUT``, ``$REPRO_CHAOS``).

    Returns the published path. The output is byte-identical to rendering
    the same camera path serially through :class:`StreamTraceWriter` with
    the same ``chunk_refs``, whatever ``jobs`` is.
    """
    path = Path(path)
    n_frames = meta.n_frames
    shards = plan_shards(n_frames, jobs)

    if jobs <= 1 or len(shards) <= 1:
        renderer, cameras = factory(*factory_args)
        with StreamTraceWriter(
            path, meta, renderer.manager.textures, chunk_refs=chunk_refs
        ) as writer:
            renderer.write_frames(cameras[:n_frames], writer)
        return path

    path.parent.mkdir(parents=True, exist_ok=True)
    shard_root = tempfile.mkdtemp(dir=path.parent, prefix=f".{path.name}.shards.")
    runner = _ShardRunner(factory, factory_args, meta, shard_root, chunk_refs)
    try:
        results = supervise_tasks(
            [(spec.index, spec) for spec in shards],
            runner,
            jobs,
            supervisor or SupervisorConfig(),
        )
        # Merge in frame order. Re-appending frames re-chunks identically
        # to a serial render because chunk boundaries depend only on the
        # concatenated stream and chunk_refs, not on shard boundaries.
        opened = [StreamingTrace(results[spec.index]) for spec in shards]
        with StreamTraceWriter(
            path, meta, opened[0].textures, chunk_refs=chunk_refs
        ) as writer:
            for shard in opened:
                for frame in shard.frames:
                    writer.append_frame(frame)
        return path
    finally:
        shutil.rmtree(shard_root, ignore_errors=True)
