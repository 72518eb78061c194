"""LRU miss-ratio curves from stack distances (Mattson et al., 1970).

Fully-associative curves come straight from the stack-distance histogram:
``misses(C) = cold + #{d >= C}``. Set-associative L1 geometries are
profiled *per set*: LRU is a stack algorithm within each set, so exact
per-set profiling reproduces the transaction-accurate
:class:`~repro.core.l1_cache.L1CacheSim` result identically (the whole
animation is one stream, matching the simulator's cross-frame state).

:func:`l1_mrc_sweep` shares one pass over the trace across all cache
sizes:

* the packed reference stream, Morton set codes, frame ids and (when
  sampling) the coarsest-set partition are computed once;
* per size, one stable sort by set groups accesses by set while
  preserving temporal order. For the paper's 1- and
  2-way geometries the hit test then needs no distance counting at all:
  within a set, an access hits a 1-way cache iff it extends the current
  same-block *run*, and hits a 2-way cache iff additionally the same
  block's previous run is exactly two runs back (stack distance 1 — the
  single intervening run is the one distinct other block). That test is
  the simulator's own kernel,
  :func:`~repro.core.l1_cache.run_lru_misses`, started cold. General
  associativities fall back to exact per-set stack distances over the
  set-grouped stream (blocks never span sets, so windows stay inside one
  set segment);
* deterministic set-sampling (profile every k-th set of the coarsest
  geometry; finer geometries' sets nest inside coarse sets, so the subset
  stays exactly profilable at every size) trades a small, validated
  estimate error for speed. ``sample=1.0`` is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytic.stack_distance import hash_sample_mask, stack_distances
from repro.core.l1_cache import L1CacheConfig, run_lru_misses, sort_by_set
from repro.trace.trace import Trace

__all__ = [
    "MissRatioCurve",
    "mrc_from_distances",
    "full_mrc",
    "L1SweepPoint",
    "l1_mrc_sweep",
    "l1_hit_mask",
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


def _grouped_misses(
    refs: np.ndarray, codes: np.ndarray, config: L1CacheConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, miss)``: the set-grouped order and each slot's LRU miss.

    ``codes`` are the Morton tile codes of a non-empty ``refs`` stream.
    """
    order, sets = sort_by_set(codes & np.int64(config.n_sets - 1), config.n_sets)
    tags = refs[order]
    if config.ways <= 2:
        # The simulator's run kernel, starting from an empty cache.
        empty = np.full(config.n_sets, -1, dtype=np.int64)
        return order, run_lru_misses(tags, sets, config.ways, empty, empty.copy())
    # General associativity: exact per-set stack distances. Blocks belong
    # to exactly one set, so reuse windows never cross segment boundaries.
    d = stack_distances(tags)
    return order, (d < 0) | (d >= config.ways)


def _trace_stream(trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated (refs, weights, frame ids) for a whole animation."""
    if not trace.frames:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    refs = np.concatenate([f.refs for f in trace.frames])
    weights = np.concatenate([f.weights for f in trace.frames])
    frame_of = np.repeat(
        np.arange(len(trace.frames), dtype=np.int64),
        [len(f.refs) for f in trace.frames],
    )
    return refs, weights, frame_of


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
            1.0 is exact (bit-identical to :class:`L1CacheSim`).
    """
    if not 0.0 < sample <= 1.0:
        raise ValueError(f"sample must be in (0, 1], got {sample}")
    sizes = tuple(sizes) if sizes is not None else PAPER_L1_SIZES
    configs = [L1CacheConfig(size_bytes=s, ways=ways) for s in sizes]
    n_frames = len(trace.frames)
    coarse_sets = min(c.n_sets for c in configs)
    keep = max(1, round(coarse_sets * sample))
    if keep < coarse_sets:
        # Sampled path: keep every stride-th set of the coarsest geometry,
        # filtering each frame with the cheap low-bits set index so the full
        # Morton codes are only computed on the kept subset.
        stride = np.int64(coarse_sets // keep)
        space = trace.address_space
        refs_parts, weights_parts, counts = [], [], []
        for f in trace.frames:
            m = space.l1_set_indices(f.refs, coarse_sets) % stride == 0
            refs_parts.append(f.refs[m])
            weights_parts.append(f.weights[m])
            counts.append(len(refs_parts[-1]))
        if refs_parts:
            refs = np.concatenate(refs_parts)
            weights = np.concatenate(weights_parts)
        else:
            refs = np.empty(0, dtype=np.int64)
            weights = np.empty(0, dtype=np.int64)
        frame_of = np.repeat(np.arange(n_frames, dtype=np.int64), counts)
    else:
        refs, weights, frame_of = _trace_stream(trace)
    n = len(refs)
    if n == 0:
        zeros = np.zeros(n_frames, dtype=np.int64)
        return {
            c.size_bytes: L1SweepPoint(
                c.size_bytes, c.n_sets, c.ways, 0, 0, 0, zeros, zeros.copy()
            )
            for c in configs
        }
    codes = trace.address_space.l1_tile_codes(refs)
    texel_reads = int(weights.sum())
    frame_reads = np.bincount(
        frame_of, weights=weights.astype(np.float64), minlength=n_frames
    ).astype(np.int64)

    out: dict[int, L1SweepPoint] = {}
    for config in configs:
        order, miss_slots = _grouped_misses(refs, codes, config)
        frame_misses = np.bincount(
            frame_of[order][miss_slots], minlength=n_frames
        ).astype(np.int64)
        out[config.size_bytes] = L1SweepPoint(
            size_bytes=config.size_bytes,
            n_sets=config.n_sets,
            ways=config.ways,
            accesses=n,
            texel_reads=texel_reads,
            misses=int(miss_slots.sum()),
            frame_misses=frame_misses,
            frame_reads=frame_reads,
        )
    return out


def l1_hit_mask(trace: Trace, config: L1CacheConfig) -> np.ndarray:
    """Exact per-access L1 hit mask over the concatenated trace stream.

    The analytic prediction is bit-identical to :class:`L1CacheSim`, so the
    complement selects exactly the miss stream the L2 consumes (in original
    temporal order).
    """
    refs, _, _ = _trace_stream(trace)
    n = len(refs)
    if n == 0:
        return np.empty(0, dtype=bool)
    order, miss = _grouped_misses(
        refs, trace.address_space.l1_tile_codes(refs), config
    )
    hit = np.empty(n, dtype=bool)
    hit[order] = ~miss
    return hit


def l2_block_mrc(
    trace: Trace,
    l1_bytes: int,
    capacities_blocks,
    l2_tile_texels: int = 16,
    l1_ways: int = 2,
    sample: float = 1.0,
) -> MissRatioCurve:
    """Fully-associative LRU curve over the L2's global block-id stream.

    The L1 miss stream feeding the L2 is policy-independent, so it is
    derived analytically (exactly) and profiled in one stack-distance pass.
    Capacities are physical block counts; the resulting hit ratio is the
    *block-residency* rate — the sim's full + partial hits combined.
    """
    config = L1CacheConfig(size_bytes=l1_bytes, ways=l1_ways)
    refs, _, _ = _trace_stream(trace)
    miss_refs = refs[~l1_hit_mask(trace, config)]
    gids = trace.address_space.global_l2_ids(miss_refs, l2_tile_texels)
    return full_mrc(gids, capacities_blocks, sample=sample)
