"""LRU miss-ratio curves from stack distances (Mattson et al., 1970).

Fully-associative curves come straight from the stack-distance histogram:
``misses(C) = cold + #{d >= C}``. The L2's curve (:func:`l2_block_mrc`)
profiles the L1 miss stream, as the paper's Fig 7 flow feeds it: the
stream a cold :class:`~repro.core.l1_cache.L1CacheSim` yields block by
block (:func:`l1_miss_stream`).

Set-associative L1 geometries have no analytic engine of their own:
:func:`l1_mrc_sweep` makes one pass over the trace's blocks, running one
cold :class:`~repro.core.l1_cache.L1CacheSim` per cache size through the
simulator's block loop (:func:`~repro.core.hierarchy.l1_blocks`). LRU is
exact per set, so the sweep is the transaction-accurate result (the
whole animation is one stream, matching the simulator's cross-frame
state). Deterministic set-sampling (profile every k-th set of the
coarsest geometry; finer geometries' sets nest inside coarse sets, so
the subset stays exactly profilable at every size) filters each block
before the sims run, trading a small, validated estimate error for
speed. ``sample=1.0`` is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytic.stack_distance import hash_sample_mask, stack_distances
from repro.core.hierarchy import FRAME_BLOCK, l1_blocks
from repro.core.l1_cache import L1CacheConfig, L1CacheSim
from repro.texture.tiling import AddressSpace
from repro.trace.trace import FrameTrace, Trace

__all__ = [
    "MissRatioCurve",
    "mrc_from_distances",
    "full_mrc",
    "L1SweepPoint",
    "l1_mrc_sweep",
    "l1_miss_stream",
    "l2_block_mrc",
    "PAPER_L1_SIZES",
]

#: The paper's Fig 9 L1 sweep (2-32 KB), the default size set.
PAPER_L1_SIZES = tuple(k * 1024 for k in (2, 4, 8, 16, 32))


@dataclass(frozen=True)
class MissRatioCurve:
    """A fully-associative LRU miss-ratio curve at chosen capacities.

    Attributes:
        capacities: block counts, ascending.
        misses: predicted misses at each capacity (cold misses included).
        accesses: profiled stream entries (post-sampling).
        cold: compulsory misses in the profiled stream.
        sample_rate: spatial sampling rate the curve was estimated at.
    """

    capacities: np.ndarray
    misses: np.ndarray
    accesses: int
    cold: int
    sample_rate: float = 1.0

    @property
    def miss_ratios(self) -> np.ndarray:
        """Miss ratio (per access) at each capacity."""
        if self.accesses == 0:
            return np.zeros(len(self.capacities))
        return self.misses / self.accesses

    @property
    def hit_ratios(self) -> np.ndarray:
        """Hit ratio (per access) at each capacity."""
        return 1.0 - self.miss_ratios


def mrc_from_distances(
    distances: np.ndarray,
    capacities,
    sample_rate: float = 1.0,
) -> MissRatioCurve:
    """Build a curve from stack distances (-1 = cold).

    With ``sample_rate < 1`` the distances are assumed to come from a
    spatially sampled stream, so a capacity ``C`` is compared against the
    scaled threshold ``ceil(C * rate)`` (SHARDS).
    """
    d = np.asarray(distances, dtype=np.int64)
    caps = np.asarray(sorted(int(c) for c in capacities), dtype=np.int64)
    if np.any(caps < 1):
        raise ValueError("capacities must be >= 1")
    finite = np.sort(d[d >= 0])
    cold = int(len(d) - len(finite))
    thresholds = np.ceil(caps * sample_rate - 1e-9).astype(np.int64)
    misses = cold + (len(finite) - np.searchsorted(finite, thresholds, side="left"))
    return MissRatioCurve(
        capacities=caps,
        misses=misses.astype(np.int64),
        accesses=len(d),
        cold=cold,
        sample_rate=sample_rate,
    )


def full_mrc(stream: np.ndarray, capacities, sample: float = 1.0) -> MissRatioCurve:
    """Fully-associative LRU curve for a block stream, in one pass.

    ``sample < 1`` hash-samples the stream spatially first (all occurrences
    of a block share one verdict) and scales capacities accordingly.
    """
    stream = np.asarray(stream, dtype=np.int64)
    if sample < 1.0:
        stream = stream[hash_sample_mask(stream, sample)]
    return mrc_from_distances(stack_distances(stream), capacities, sample_rate=sample)


# ----------------------------------------------------------------------
# Set-associative L1 sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class L1SweepPoint:
    """Predicted L1 behaviour at one cache size.

    ``accesses``/``texel_reads`` are the *profiled* (possibly sampled)
    denominators, so ``miss_rate`` is directly comparable with the
    transaction simulator's texel-level miss rate.
    """

    size_bytes: int
    n_sets: int
    ways: int
    accesses: int
    texel_reads: int
    misses: int
    frame_misses: np.ndarray
    frame_reads: np.ndarray

    @property
    def miss_rate(self) -> float:
        """Misses per texel read (the Fig 9 y-axis)."""
        if self.texel_reads == 0:
            return 0.0
        return self.misses / self.texel_reads

    @property
    def hit_rate(self) -> float:
        """Texel-level hit rate (collapsed runs all hit, as in the sim)."""
        return 1.0 - self.miss_rate


def _sampled_frame(
    frame: FrameTrace, space: AddressSpace, coarse_sets: int, stride: int
) -> FrameTrace:
    """The frame's refs that fall in every ``stride``-th set of the
    coarsest geometry, filtered block by block (the whole frame is never
    read at once) and gathered so each sim runs one block, not many."""
    refs, weights = [], []
    for r, w in frame.blocks(FRAME_BLOCK):
        keep = space.l1_set_indices(r, coarse_sets) % stride == 0
        refs.append(r[keep])
        weights.append(w[keep])
    return FrameTrace(
        np.concatenate(refs), np.concatenate(weights), frame.n_fragments
    )


def l1_mrc_sweep(
    trace: Trace,
    sizes=None,
    ways: int = 2,
    sample: float = 1.0,
) -> dict[int, L1SweepPoint]:
    """Predict L1 miss rates at every size from one pass over the trace.

    Args:
        trace: the animation to profile.
        sizes: cache sizes in bytes (default: the paper's Fig 9 sweep).
        ways: associativity (paper fixes 2; any value is supported).
        sample: fraction of the coarsest geometry's sets to profile;
            1.0 is exact (the :class:`L1CacheSim` result).
    """
    if not 0.0 < sample <= 1.0:
        raise ValueError(f"sample must be in (0, 1], got {sample}")
    sizes = tuple(sizes) if sizes is not None else PAPER_L1_SIZES
    configs = [L1CacheConfig(size_bytes=s, ways=ways) for s in sizes]
    sims = [L1CacheSim(c) for c in configs]
    space = trace.address_space
    n_frames = len(trace.frames)
    coarse_sets = min(c.n_sets for c in configs)
    stride = coarse_sets // max(1, round(coarse_sets * sample))

    frame_misses = np.zeros((len(configs), n_frames), dtype=np.int64)
    frame_reads = np.zeros(n_frames, dtype=np.int64)
    accesses = 0
    for i, frame in enumerate(trace.frames):
        if stride > 1:
            frame = _sampled_frame(frame, space, coarse_sets, stride)
        # Every sim takes block b before any takes block b + 1, so a block
        # is read while it is hot and a spanning frame's chunks load once.
        for blocks in zip(*(l1_blocks(frame, sim, space) for sim in sims)):
            results = [res for _, _, res in blocks]
            frame_reads[i] += results[0].texel_reads
            accesses += results[0].accesses
            frame_misses[:, i] += [res.misses for res in results]

    texel_reads = int(frame_reads.sum())
    return {
        config.size_bytes: L1SweepPoint(
            size_bytes=config.size_bytes,
            n_sets=config.n_sets,
            ways=config.ways,
            accesses=accesses,
            texel_reads=texel_reads,
            misses=int(misses.sum()),
            frame_misses=misses,
            frame_reads=frame_reads,
        )
        for config, misses in zip(configs, frame_misses)
    }


def l1_miss_stream(trace: Trace, l1_bytes: int, l1_ways: int = 2) -> np.ndarray:
    """The L2's input: a cold L1's miss refs over the whole animation, in
    access order.

    A fresh :class:`L1CacheSim` runs through the simulator's block loop,
    so frames are read block by block and only the misses are kept. The
    stream does not depend on anything below the L1.
    """
    l1 = L1CacheSim(L1CacheConfig(size_bytes=l1_bytes, ways=l1_ways))
    space = trace.address_space
    parts = [
        res.miss_refs
        for frame in trace.frames
        for _, _, res in l1_blocks(frame, l1, space)
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def l2_block_mrc(
    trace: Trace,
    l1_bytes: int,
    capacities_blocks,
    l2_tile_texels: int = 16,
    l1_ways: int = 2,
    sample: float = 1.0,
) -> MissRatioCurve:
    """Fully-associative LRU curve over the L2's global block-id stream.

    The L2 sees the L1 miss stream (:func:`l1_miss_stream`), profiled in
    one stack-distance pass. Capacities are physical block counts; the
    resulting hit ratio is the *block-residency* rate — the sim's full +
    partial hits combined.
    """
    miss_refs = l1_miss_stream(trace, l1_bytes, l1_ways)
    gids = trace.address_space.global_l2_ids(miss_refs, l2_tile_texels)
    return full_mrc(gids, capacities_blocks, sample=sample)
