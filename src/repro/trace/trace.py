"""Trace containers: per-frame reference streams plus workload metadata."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace

__all__ = ["FrameTrace", "TraceMeta", "Trace"]


@dataclass
class FrameTrace:
    """One frame's collapsed tile-reference stream.

    Attributes:
        refs: int64 packed 4x4-tile references, consecutive duplicates
            collapsed, in rasterization order.
        weights: texel reads per entry (run lengths); ``weights.sum()`` is
            the frame's total texel reads.
        n_fragments: fragments textured this frame: every rasterized
            fragment, or under ``z_before_texture`` only those that
            passed the depth test (so the depth complexity of
            :mod:`repro.trace.stats` then counts visible fragments).
        object_offsets: optional start indices (into ``refs``) of each
            rendered object's sub-stream, in submission order. Enables the
            §4 locality-class decomposition (intra-object vs intra-frame vs
            inter-frame reuse); None for traces that did not record it.
    """

    refs: np.ndarray
    weights: np.ndarray
    n_fragments: int
    object_offsets: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.refs = np.asarray(self.refs, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.int64)
        if self.refs.shape != self.weights.shape:
            raise ValueError(
                f"refs ({self.refs.shape}) and weights ({self.weights.shape}) "
                "must have the same shape"
            )
        if self.object_offsets is not None:
            offs = np.asarray(self.object_offsets, dtype=np.int64)
            if len(offs) and (
                offs[0] != 0
                or np.any(np.diff(offs) < 0)
                or offs[-1] > len(self.refs)
            ):
                raise ValueError(
                    "object_offsets must start at 0, be non-decreasing, and "
                    "stay within the stream"
                )
            self.object_offsets = offs

    @property
    def texel_reads(self) -> int:
        """Total texel reads this frame (collapsed weights restored).

        Summed over blocks cut only where the frame's storage is, so a
        streamed frame is never assembled to be counted.
        """
        return sum(int(w.sum()) for _, w in self.blocks(sys.maxsize))

    def blocks(self, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The frame's ``(refs, weights)`` in order, as views of at most
        ``size`` entries each.

        An empty frame yields one empty block, so a consumer folding
        per-block results still makes one pass per frame. A frame read
        from a ``.stream`` also cuts at every chunk edge
        (:mod:`repro.trace.stream`).
        """
        for start in range(0, max(len(self.refs), 1), size):
            yield self.refs[start : start + size], self.weights[start : start + size]

    def object_ids(self) -> np.ndarray | None:
        """Per-entry object index (from ``object_offsets``), or None."""
        if self.object_offsets is None:
            return None
        offs = self.object_offsets
        ids = np.zeros(len(self.refs), dtype=np.int64)
        if len(offs) > 1:
            # Mark each object start, then cumulative-sum into ids.
            marks = np.zeros(len(self.refs) + 1, dtype=np.int64)
            marks[offs[1:]] = 1
            ids = np.cumsum(marks[:-1])
        return ids


@dataclass(frozen=True)
class TraceMeta:
    """Identification of how a trace was produced."""

    workload: str
    width: int
    height: int
    filter_mode: str
    n_frames: int


@dataclass
class Trace:
    """A whole animation's worth of frame traces plus the texture set.

    The texture set (dimensions and original depths; no texel content) is
    carried along because every consumer — address translation, working-set
    and push-architecture memory accounting — needs it.

    ``frames`` is any integer-indexable sequence of :class:`FrameTrace`;
    besides plain lists, consumers receive lazy sequences (streamed traces,
    lazy tenant merges) that build each frame on access, so nothing here or
    downstream may assume the whole animation is resident.
    """

    meta: TraceMeta
    frames: Sequence[FrameTrace]
    textures: list[Texture]
    _space: AddressSpace | None = field(default=None, init=False, repr=False)
    _fingerprint: int | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.frames) != self.meta.n_frames:
            raise ValueError(
                f"meta declares {self.meta.n_frames} frames, got {len(self.frames)}"
            )

    @property
    def address_space(self) -> AddressSpace:
        """Lazy :class:`AddressSpace` over the trace's texture set."""
        if self._space is None:
            self._space = AddressSpace(self.textures)
        return self._space

    @property
    def pixels_per_frame(self) -> int:
        """Screen pixels per frame (width * height)."""
        return self.meta.width * self.meta.height

    def total_texel_reads(self) -> int:
        """Texel reads summed over the whole animation."""
        return sum(f.texel_reads for f in self.frames)

    def fingerprint(self) -> int:
        """CRC32 over the whole reference stream (cached per object).

        Keys the persistent simulation store and binds checkpoints to the
        trace they were taken from, so same-shaped traces with different
        content never alias. The CRC walks :meth:`FrameTrace.blocks`, so a
        streamed trace hashes its chunk views in place to the same value
        as its in-RAM twin.
        """
        if self._fingerprint is None:
            import zlib

            crc = 0
            for frame in self.frames:
                # Each frame's refs, then its weights, block by block.
                for i in (0, 1):
                    for block in frame.blocks(sys.maxsize):
                        crc = zlib.crc32(
                            np.ascontiguousarray(block[i]).view(np.uint8), crc
                        )
            self._fingerprint = crc
        return self._fingerprint
