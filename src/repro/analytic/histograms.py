"""Per-frame and per-locality-class stack-distance histograms (§4).

:mod:`repro.trace.locality` answers *where* each block was last touched
(same object, same frame, previous frame, ...); this module adds *how far
back in distinct blocks* — the quantitative reuse-distance distribution
behind each locality class. The two views plug together: every collapsed
reference is assigned the same class the §4 decomposition gives it, and a
stack-distance histogram is accumulated per class and per frame.

Reading the result against the cache design: the mass of ``intra_object`` /
``intra_frame`` reuse below ~32-512 blocks is what a few-KB L1 captures;
the ``inter_frame`` mass sits at distances around one frame's working set
and is exactly what the L2 is sized for; ``distant`` mass beyond that only
a much larger L2 (or the push architecture) would keep.

Bins are logarithmic in distinct blocks: 0, 1, 2, 3-4, 5-8, ... with a
final overflow bin and a separate ``cold`` column for compulsory first
touches. The ``run`` class (collapsed same-tile repeats) trivially has
distance 0; its mass comes from the collapse weights, all other classes
count stream entries — matching
:func:`repro.trace.locality.classify_locality` totals exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytic.stack_distance import previous_occurrence, stack_distances
from repro.texture.tiling import L1_TILE_TEXELS, block_keys
from repro.trace.locality import CLASSES
from repro.trace.trace import Trace

__all__ = ["ReuseHistograms", "reuse_distance_histograms", "distance_bin_labels"]


def _bin_uppers(max_distance: int, max_log2: int) -> np.ndarray:
    """Inclusive upper edges 0, 1, 2, 4, 8, ... covering ``max_distance``."""
    uppers = [0, 1, 2]
    k = 2
    while uppers[-1] < max_distance and k < max_log2:
        k += 1
        uppers.append(1 << k)
    return np.asarray(uppers, dtype=np.int64)


def distance_bin_labels(uppers: np.ndarray) -> list[str]:
    """Human labels for the log bins, plus overflow and cold columns."""
    labels = []
    prev = -1
    for u in uppers.tolist():
        labels.append(str(u) if u == prev + 1 else f"{prev + 1}-{u}")
        prev = u
    labels.append(f">{uppers[-1]}")
    labels.append("cold")
    return labels


@dataclass
class ReuseHistograms:
    """Stack-distance histograms of one trace at one block granularity.

    Attributes:
        tile_texels: block edge the stream was coarsened to.
        bin_uppers: inclusive upper distance edge per log bin.
        bin_labels: one label per column of the histograms (the last two
            columns are the overflow bin and cold/compulsory touches).
        per_frame: ``(n_frames, n_bins)`` entry counts.
        per_class: §4 class name -> ``(n_bins,)`` counts ("run" mass comes
            from collapse weights at distance 0; other classes count
            entries).
        entries: total stream entries classified.
    """

    tile_texels: int
    bin_uppers: np.ndarray
    bin_labels: list[str]
    per_frame: np.ndarray
    per_class: dict[str, np.ndarray]
    entries: int

    def class_totals(self) -> dict[str, int]:
        """Total mass per §4 class (comparable to ``classify_locality``)."""
        return {name: int(row.sum()) for name, row in self.per_class.items()}


def reuse_distance_histograms(
    trace: Trace, tile_texels: int = 16, max_log2: int = 24
) -> ReuseHistograms:
    """Per-frame and per-§4-class stack-distance histograms of a trace.

    Works without ``object_offsets``; the intra-object / intra-frame split
    then collapses into ``intra_frame`` (first-touch classes are unaffected).
    """
    if tile_texels % L1_TILE_TEXELS:
        raise ValueError(
            f"tile size must be a multiple of {L1_TILE_TEXELS}, got {tile_texels}"
        )
    factor = tile_texels // L1_TILE_TEXELS
    n_frames = len(trace.frames)
    frames = trace.frames
    blocks_per_frame = [block_keys(f.refs, factor) for f in frames]
    n = int(sum(len(b) for b in blocks_per_frame))
    have_objects = n_frames > 0 and all(
        f.object_offsets is not None for f in frames
    )
    if n == 0:
        uppers = _bin_uppers(0, max_log2)
        n_bins = len(uppers) + 2
        return ReuseHistograms(
            tile_texels=tile_texels,
            bin_uppers=uppers,
            bin_labels=distance_bin_labels(uppers),
            per_frame=np.zeros((n_frames, n_bins), dtype=np.int64),
            per_class={c: np.zeros(n_bins, dtype=np.int64) for c in CLASSES},
            entries=0,
        )

    blocks = np.concatenate(blocks_per_frame)
    weights = np.concatenate([f.weights for f in frames])
    frame_of = np.repeat(
        np.arange(n_frames, dtype=np.int64), [len(b) for b in blocks_per_frame]
    )
    prev = previous_occurrence(blocks)
    dist = stack_distances(blocks, prev=prev)

    # --- §4 class per entry (same rules as locality.classify_locality) ---
    class_idx = {name: i for i, name in enumerate(CLASSES)}
    cls = np.empty(n, dtype=np.int64)
    cold = prev < 0
    prev_safe = np.maximum(prev, 0)
    prev_frame = frame_of[prev_safe]
    same_frame = (~cold) & (prev_frame == frame_of)
    cls[cold] = class_idx["compulsory"]
    cls[(~cold) & (prev_frame == frame_of - 1)] = class_idx["inter_frame"]
    cls[(~cold) & (prev_frame < frame_of - 1)] = class_idx["distant"]
    if have_objects:
        obj_of = np.concatenate([f.object_ids() for f in frames])
        same_obj = same_frame & (obj_of[prev_safe] == obj_of)
        cls[same_obj] = class_idx["intra_object"]
        cls[same_frame & ~same_obj] = class_idx["intra_frame"]
    else:
        cls[same_frame] = class_idx["intra_frame"]

    # --- log-binned distances (cold -> last column) ---
    max_d = int(dist.max()) if len(dist) else 0
    uppers = _bin_uppers(max(max_d, 0), max_log2)
    n_log = len(uppers)
    n_bins = n_log + 2  # + overflow + cold
    bin_of = np.searchsorted(uppers, dist, side="left")
    bin_of = np.minimum(bin_of, n_log)  # overflow bin
    bin_of[cold] = n_log + 1

    per_frame = np.bincount(
        frame_of * n_bins + bin_of, minlength=n_frames * n_bins
    ).reshape(n_frames, n_bins)
    by_class = np.bincount(
        cls * n_bins + bin_of, minlength=len(CLASSES) * n_bins
    ).reshape(len(CLASSES), n_bins)
    per_class = {name: by_class[i].astype(np.int64) for i, name in enumerate(CLASSES)}
    # Collapsed repeats re-read the same block immediately: distance 0.
    per_class["run"] = np.zeros(n_bins, dtype=np.int64)
    per_class["run"][0] = int((weights - 1).sum())

    return ReuseHistograms(
        tile_texels=tile_texels,
        bin_uppers=uppers,
        bin_labels=distance_bin_labels(uppers),
        per_frame=per_frame.astype(np.int64),
        per_class=per_class,
        entries=n,
    )
