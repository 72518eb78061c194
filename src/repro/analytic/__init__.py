"""Analytic cache models: one trace pass instead of one sim per size.

* :mod:`repro.analytic.stack_distance` — single-pass Mattson stack-distance
  profiling (Fenwick/Olken reference + vectorized merge) and deterministic
  spatial sampling;
* :mod:`repro.analytic.mrc` — LRU miss-ratio curves: a fully-associative
  curve over the L2's block stream, and an L1 size sweep that runs one
  :class:`~repro.core.l1_cache.L1CacheSim` per size in one pass over the
  trace's blocks (optional set-sampling). Both take the L1 from the
  simulator's block loop (:func:`~repro.core.hierarchy.l1_blocks`); this
  package has no L1 engine of its own;
* :mod:`repro.analytic.belady` — offline-optimal (Belady) L2 replacement,
  the lower bound every policy ablation is measured against;
* :mod:`repro.analytic.histograms` — per-frame and per-§4-locality-class
  reuse-distance histograms.
"""

from repro.analytic.belady import (
    belady_hits,
    belady_l2,
    next_use_indices,
    opt_l2_result,
)
from repro.analytic.histograms import (
    ReuseHistograms,
    distance_bin_labels,
    reuse_distance_histograms,
)
from repro.analytic.mrc import (
    L1SweepPoint,
    MissRatioCurve,
    PAPER_L1_SIZES,
    full_mrc,
    l1_miss_stream,
    l1_mrc_sweep,
    l2_block_mrc,
    mrc_from_distances,
)
from repro.analytic.stack_distance import (
    FenwickTree,
    count_leq_before,
    hash_sample_mask,
    previous_occurrence,
    stack_distances,
    stack_distances_fenwick,
)

__all__ = [
    "FenwickTree",
    "previous_occurrence",
    "count_leq_before",
    "stack_distances",
    "stack_distances_fenwick",
    "hash_sample_mask",
    "MissRatioCurve",
    "mrc_from_distances",
    "full_mrc",
    "L1SweepPoint",
    "l1_mrc_sweep",
    "l1_miss_stream",
    "l2_block_mrc",
    "PAPER_L1_SIZES",
    "next_use_indices",
    "belady_hits",
    "belady_l2",
    "opt_l2_result",
    "ReuseHistograms",
    "reuse_distance_histograms",
    "distance_bin_labels",
]
