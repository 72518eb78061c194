"""Deterministic seeded schedulers that interleave tenant streams.

Each scheduler merges N per-tenant traces into one shared
:class:`~repro.trace.trace.Trace` whose reference stream interleaves the
tenants' (tenant-retagged) streams at chunk granularity, preserving every
tenant's internal access order. The merged trace is an ordinary trace —
address space, L1/L2/TLB simulation, analytic models, the store and the
checkpoint format all work on it unchanged.

Schedules (all fully deterministic; nothing draws from an unseeded RNG):

* ``rr`` — round robin over equal chunks; the start tenant rotates with
  the frame index so no tenant permanently owns the cold caches.
* ``weighted`` — weighted fair queueing: chunk *k* of tenant *t* is
  emitted at virtual time ``(k + 1) / weight[t]``.
* ``bursty`` — poisson-like arrivals: per-chunk inter-arrival gaps are
  ``-log1p(-u) / weight[t]`` with ``u`` derived from a splitmix64 hash of
  (seed, frame, tenant, chunk), giving bursts and lulls that are
  bit-reproducible across runs and platforms.
"""

from __future__ import annotations

import numpy as np

from repro.tenancy.address import tag_refs, tenant_tid_bases
from repro.trace.trace import FrameTrace, Trace, TraceMeta

__all__ = ["SCHEDULES", "DEFAULT_CHUNK_REFS", "merge_traces"]

SCHEDULES = ("rr", "weighted", "bursty")

#: Interleave granularity: collapsed tile-refs per scheduling chunk.
DEFAULT_CHUNK_REFS = 1024

_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array (vectorized)."""
    z = x + _SM64_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM64_M1
    z = (z ^ (z >> np.uint64(27))) * _SM64_M2
    return z ^ (z >> np.uint64(31))


def _hash_unit(seed: int, frame: int, tenant: int, ks: np.ndarray) -> np.ndarray:
    """Deterministic uniforms in [0, 1) for (seed, frame, tenant, chunk)."""
    with np.errstate(over="ignore"):  # mod-2^64 wraparound is the hash
        base = (
            np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * np.uint64(0xD1342543DE82EF95)
            + np.uint64(frame) * np.uint64(0x2545F4914F6CDD1D)
            + np.uint64(tenant) * np.uint64(0x9E3779B9)
        )
        h = _splitmix64(base + ks.astype(np.uint64))
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _emission_order(
    schedule: str,
    counts: list[int],
    weights: np.ndarray,
    seed: int,
    frame_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(tenant, chunk) pairs in emission order for one frame."""
    n = len(counts)
    tenants = np.concatenate(
        [np.full(c, t, dtype=np.int64) for t, c in enumerate(counts)]
    )
    kcat = np.concatenate([np.arange(c, dtype=np.int64) for c in counts])
    if schedule == "rr":
        virtual = kcat.astype(np.float64)
        tie = (tenants - frame_index) % n
    elif schedule == "weighted":
        virtual = (kcat + 1) / weights[tenants]
        tie = tenants
    else:  # bursty
        parts = []
        for t, c in enumerate(counts):
            gaps = -np.log1p(
                -_hash_unit(seed, frame_index, t, np.arange(c, dtype=np.int64))
            ) / weights[t]
            parts.append(np.cumsum(gaps))
        virtual = np.concatenate(parts)
        tie = tenants
    order = np.lexsort((kcat, tie, virtual))
    return tenants[order], kcat[order]


def _merged_workload(
    names: list[str], schedule: str, seed: int, weights, chunk_refs: int
) -> str:
    """Workload tag identifying the merge (stream-determining params only).

    The simulation-cache memo keys on trace metadata, so everything that
    changes the merged stream must land in the workload string.
    """
    tag = f"tenancy[{'+'.join(names)}|{schedule}|s{seed}"
    if weights is not None:
        tag += "|w" + ",".join(f"{w:g}" for w in weights)
    if chunk_refs != DEFAULT_CHUNK_REFS:
        tag += f"|c{chunk_refs}"
    return tag + "]"


def _merge_frame(
    traces,
    f: int,
    bases,
    schedule: str,
    warr: np.ndarray,
    seed: int,
    chunk_refs: int,
) -> FrameTrace:
    """Interleave one frame's tenant streams (the merge inner loop)."""
    frames = [trace.frames[f] for trace in traces]
    tagged = [tag_refs(frame.refs, base) for frame, base in zip(frames, bases)]
    weights = [frame.weights for frame in frames]
    # Chunk k of a tenant is entries [k * chunk_refs, (k + 1) * chunk_refs);
    # an empty stream is one empty chunk.
    counts = [-(-max(len(r), 1) // chunk_refs) for r in tagged]
    order_t, order_k = _emission_order(schedule, counts, warr, seed, f)
    cuts = [
        (t, k * chunk_refs, (k + 1) * chunk_refs)
        for t, k in zip(order_t.tolist(), order_k.tolist())
    ]
    return FrameTrace(
        refs=np.concatenate([tagged[t][s:e] for t, s, e in cuts]),
        weights=np.concatenate([weights[t][s:e] for t, s, e in cuts]),
        n_fragments=sum(frame.n_fragments for frame in frames),
    )


class _LazyMergedFrames:
    """Sequence that merges each frame on access instead of up front.

    With streamed per-tenant traces underneath, a merged stream never
    holds more than the frame being simulated, however many tenants share
    it.
    """

    def __init__(self, traces, bases, schedule, warr, seed, chunk_refs):
        self._traces = traces
        self._bases = bases
        self._schedule = schedule
        self._warr = warr
        self._seed = seed
        self._chunk_refs = chunk_refs
        self._n_frames = traces[0].meta.n_frames

    def __len__(self) -> int:
        return self._n_frames

    def __iter__(self):
        for f in range(self._n_frames):
            yield self[f]

    def __getitem__(self, f: int) -> FrameTrace:
        if isinstance(f, slice):
            return [self[j] for j in range(*f.indices(self._n_frames))]
        if f < 0:
            f += self._n_frames
        if not 0 <= f < self._n_frames:
            raise IndexError(f)
        return _merge_frame(
            self._traces,
            f,
            self._bases,
            self._schedule,
            self._warr,
            self._seed,
            self._chunk_refs,
        )


def merge_traces(
    traces,
    schedule: str = "rr",
    weights=None,
    seed: int = 0,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    workload: str | None = None,
) -> tuple[Trace, tuple[int, ...]]:
    """Merge per-tenant traces into one shared stream.

    Returns the merged trace plus the per-tenant tid bases needed to build
    a :class:`~repro.tenancy.partition.TenancyConfig`. The same trace
    object may appear several times (homogeneous multi-programming); each
    occurrence becomes an independent tenant with its own texture copies.

    The merged trace's ``frames`` interleaves each frame on access, so a
    merge over streamed tenant traces holds at most one merged frame in
    RAM.
    """
    traces = list(traces)
    if schedule not in SCHEDULES:
        raise ValueError(
            f"unknown schedule {schedule!r}; choose from {SCHEDULES}"
        )
    if not traces:
        raise ValueError("need at least one tenant trace")
    if chunk_refs < 1:
        raise ValueError(f"chunk_refs must be >= 1, got {chunk_refs}")
    n_frames = traces[0].meta.n_frames
    if any(t.meta.n_frames != n_frames for t in traces):
        raise ValueError(
            "tenant traces must have equal frame counts: "
            f"{[t.meta.n_frames for t in traces]}"
        )
    n = len(traces)
    if weights is not None:
        if len(weights) != n:
            raise ValueError(
                f"got {len(weights)} weights for {n} tenants"
            )
        if any(w <= 0 for w in weights):
            raise ValueError(f"weights must be positive: {list(weights)}")
        warr = np.asarray([float(w) for w in weights])
    else:
        warr = np.ones(n)

    bases = tenant_tid_bases([len(t.textures) for t in traces])
    textures = [tex for t in traces for tex in t.textures]

    frames = _LazyMergedFrames(traces, bases, schedule, warr, seed, chunk_refs)

    first = traces[0].meta
    meta = TraceMeta(
        workload=workload
        or _merged_workload(
            [t.meta.workload for t in traces],
            schedule,
            seed,
            None if weights is None else list(warr),
            chunk_refs,
        ),
        width=first.width,
        height=first.height,
        filter_mode=first.filter_mode,
        n_frames=n_frames,
    )
    return Trace(meta=meta, frames=frames, textures=textures), bases
