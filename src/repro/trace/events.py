"""Reference-stream compression.

Texture accesses are extremely locally redundant: consecutive texel reads
overwhelmingly land in the tile just read. :func:`collapse_runs` run-length
collapses consecutive identical tile references, keeping an exact per-entry
weight. Collapsed repeats are *guaranteed cache hits* in any cache of at
least one line per set — the tile was the immediately preceding reference —
so hit/miss accounting over the collapsed stream is exact:

    texel hits = (total weight - stream length) + in-stream hits.
"""

from __future__ import annotations

import numpy as np

from repro.workspace import Workspace

__all__ = ["collapse_runs", "drop_repeats"]


def collapse_runs(
    refs: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run-length collapse a reference stream.

    Args:
        refs: 1-D int64 array of packed tile references in access order.
        out: optional ``(values, weights)`` int64 buffers to write into,
            each at least as long as the collapsed stream; the result is
            then views of their heads.
        workspace: holds the run-boundary mask (its ``cr_boundaries``
            buffer).

    Returns:
        ``(values, weights)``: the stream with consecutive duplicates merged,
        and the run length of each surviving entry. ``weights.sum()`` equals
        ``len(refs)``.
    """
    refs = np.asarray(refs, dtype=np.int64)
    n = len(refs)
    if n == 0:
        return refs.copy(), np.empty(0, dtype=np.int64)
    ws = Workspace() if workspace is None else workspace
    boundaries = ws.buffer("cr_boundaries", n, bool)
    boundaries[0] = True
    np.not_equal(refs[1:], refs[:-1], out=boundaries[1:])
    # Run starts come fresh: np.compress into a buffer measured 3x
    # slower than np.flatnonzero, and there are fewer starts than refs.
    starts = np.flatnonzero(boundaries)
    k = len(starts)
    if out is None:
        values = refs[starts]
        weights = np.empty(k, dtype=np.int64)
    else:
        values, weights = out[0][:k], out[1][:k]
        np.take(refs, starts, mode="clip", out=values)
    # Run lengths: gaps between run starts, the last run ends at n.
    np.subtract(starts[1:], starts[:-1], out=weights[:-1])
    weights[-1] = n - starts[-1]
    return values, weights


def drop_repeats(values: np.ndarray) -> np.ndarray:
    """``values`` with each run of equal neighbours cut to its first entry.

    The distinct values and the order of their first occurrences stay the
    same, so a later ``np.unique`` (with or without ``return_index``) sorts
    fewer entries for the same answer.
    """
    if len(values) < 2:
        return values
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]
