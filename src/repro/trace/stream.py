"""Chunked, out-of-core trace storage: the repository's one trace format.

Rendering is the expensive step of the study, so each animation is traced
once and its reference stream stored on disk; every experiment then
replays it through many cache configurations. A trace is a *directory*
(conventionally named ``*.stream``):

* ``refs_00000.npy`` / ``weights_00000.npy`` … — the animation's collapsed
  reference stream, concatenated across frames and split into fixed-size
  chunks (``chunk_refs`` entries each, last one partial). Plain ``.npy``
  files load with ``mmap_mode='r'``, so a reader touches only the pages a
  frame actually spans.
* ``frame_starts.npy`` — per-frame start positions into that global stream
  (``n_frames + 1`` entries), plus ``n_fragments.npy`` and the flattened
  ``object_offsets`` index.
* ``manifest.json`` — format version, :class:`~repro.trace.trace.TraceMeta`
  fields, the texture set, and a CRC32 per file
  (:func:`~repro.reliability.integrity.array_checksum`).

:class:`StreamTraceWriter` appends one :class:`FrameTrace` at a time,
saving whole chunks straight from slices of the frame's blocks, and never
holds more than one chunk of pending data (a tail buffer), so
``Renderer.write_frames(cameras, writer)`` renders an arbitrarily
long animation in bounded memory. :class:`StreamingTrace` is the reading
counterpart: a :class:`~repro.trace.trace.Trace` whose lazy ``frames``
copy nothing. A frame inside one chunk is a pair of read-only views of
that mmap'd chunk; a frame that crosses chunk edges hands out its
per-chunk views one at a time (:meth:`FrameTrace.blocks`). The simulator
(L1, TLB, L2, VT and tenant attribution), the texel-read count, the
fingerprint, the writer, the working-set and frame-distance analyses and
the push and streaming-architecture drivers all walk those blocks. The
frame concatenates its views only when a consumer reads its whole
``refs`` or ``weights`` (the :class:`_SpanFrame` docstring lists them).
Each chunk's CRC is verified once, on first touch. A corrupt chunk is
moved into ``quarantine/`` and surfaces as
:class:`~repro.errors.TraceCorruptionError`.

Nothing copies a trace into RAM: the experiments' trace cache hands out
the :class:`StreamingTrace` of its slot, so a frame is valid while its
directory holds the same bytes. The directory is written atomically (tmp
dir + ``os.replace``), so readers never observe a half-written trace.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.errors import TraceCorruptionError, TraceFormatError
from repro.reliability.integrity import ArrayCheck, VerifyReport, array_checksum
from repro.texture.texture import Texture
from repro.trace.trace import FrameTrace, Trace, TraceMeta

__all__ = [
    "STREAM_VERSION",
    "DEFAULT_CHUNK_REFS",
    "StreamTraceWriter",
    "StreamingTrace",
    "save_stream",
    "open_trace",
]

STREAM_VERSION = 1

#: Default chunk length (stream entries per chunk): 1M entries = 8 MB per
#: refs chunk — large enough for mmap efficiency, small enough that a
#: reader's working set stays a few chunks.
DEFAULT_CHUNK_REFS = 1 << 20

_MANIFEST = "manifest.json"
_INDEX_FILES = (
    "frame_starts", "n_fragments", "offsets_cat", "offset_bounds", "has_offsets"
)


def _chunk_name(kind: str, index: int) -> str:
    return f"{kind}_{index:05d}.npy"


class StreamTraceWriter:
    """Writes a streamed trace one frame at a time in bounded memory.

    Usage::

        with StreamTraceWriter(path, meta, textures) as w:
            renderer.write_frames(cameras, w)

    The target directory appears atomically on successful ``close()`` (the
    context manager calls it); on error the partial tmp directory is
    removed and an existing trace at ``path`` is left untouched.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        meta: TraceMeta,
        textures: list[Texture],
        chunk_refs: int = DEFAULT_CHUNK_REFS,
    ):
        if chunk_refs < 1:
            raise ValueError(f"chunk_refs must be >= 1, got {chunk_refs}")
        self.path = Path(path)
        self.meta = meta
        self.textures = list(textures)
        self.chunk_refs = int(chunk_refs)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = Path(
            tempfile.mkdtemp(dir=self.path.parent, prefix=f".{self.path.name}.")
        )
        self._checksums: dict[str, int] = {}
        self._n_chunks = 0
        # The tail of the stream not yet in a chunk file (under one chunk).
        self._tail_refs = np.empty(self.chunk_refs, dtype=np.int64)
        self._tail_weights = np.empty(self.chunk_refs, dtype=np.int64)
        self._pending = 0  # entries buffered in the tail
        self._total = 0  # entries flushed + buffered (global stream length)
        self._frame_starts: list[int] = [0]
        self._n_fragments: list[int] = []
        self._offsets: list[np.ndarray] = []
        self._offset_bounds: list[int] = [0]
        self._has_offsets: list[bool] = []
        self._closed = False

    # ------------------------------------------------------------------
    def append_frame(self, frame: FrameTrace) -> None:
        """Append one frame's refs/weights to the stream.

        The frame is read through :meth:`FrameTrace.blocks`, uncut except
        where its storage is: an in-RAM frame arrives whole, and a frame
        that spans chunks of another ``.stream`` (the ``render --jobs``
        shard merge) arrives as its chunk views, never assembled. Whole
        chunks are written straight from slices of a block; only a chunk
        that straddles blocks passes through the tail buffer.
        """
        if self._closed:
            raise RuntimeError("writer is closed")
        n = 0
        for refs, weights in frame.blocks(sys.maxsize):
            self._write(
                np.asarray(refs, dtype=np.int64), np.asarray(weights, dtype=np.int64)
            )
            n += len(refs)
        self._total += n
        self._frame_starts.append(self._total)
        self._n_fragments.append(int(frame.n_fragments))
        if frame.object_offsets is not None:
            self._offsets.append(np.asarray(frame.object_offsets, dtype=np.int64))
            self._has_offsets.append(True)
        else:
            self._offsets.append(np.empty(0, dtype=np.int64))
            self._has_offsets.append(False)
        self._offset_bounds.append(self._offset_bounds[-1] + len(self._offsets[-1]))

    def _write(self, refs: np.ndarray, weights: np.ndarray) -> None:
        """Add one block to the stream, flushing every chunk it completes."""
        chunk = self.chunk_refs
        n = len(refs)
        pos = 0
        if self._pending:
            pos = min(chunk - self._pending, n)
            self._buffer(refs[:pos], weights[:pos])
            if self._pending < chunk:
                return
            self._flush_chunk(self._tail_refs, self._tail_weights)
            self._pending = 0
        while n - pos >= chunk:
            self._flush_chunk(refs[pos : pos + chunk], weights[pos : pos + chunk])
            pos += chunk
        self._buffer(refs[pos:], weights[pos:])

    def _buffer(self, refs: np.ndarray, weights: np.ndarray) -> None:
        """Copy a piece of under one chunk onto the end of the tail."""
        end = self._pending + len(refs)
        self._tail_refs[self._pending : end] = refs
        self._tail_weights[self._pending : end] = weights
        self._pending = end

    def _flush_chunk(self, refs: np.ndarray, weights: np.ndarray) -> None:
        for kind, arr in (("refs", refs), ("weights", weights)):
            name = _chunk_name(kind, self._n_chunks)
            np.save(self._tmp / name, arr)
            self._checksums[name] = array_checksum(arr)
        self._n_chunks += 1

    def close(self) -> Path:
        """Flush, write the index and manifest, and publish atomically."""
        if self._closed:
            return self.path
        if len(self._n_fragments) != self.meta.n_frames:
            self.abort()
            raise ValueError(
                f"meta declares {self.meta.n_frames} frames, "
                f"appended {len(self._n_fragments)}"
            )
        if self._pending or self._n_chunks == 0:
            self._flush_chunk(
                self._tail_refs[: self._pending],
                self._tail_weights[: self._pending],
            )
        index = {
            "frame_starts": np.asarray(self._frame_starts, dtype=np.int64),
            "n_fragments": np.asarray(self._n_fragments, dtype=np.int64),
            "offsets_cat": (
                np.concatenate(self._offsets)
                if self._offsets
                else np.empty(0, dtype=np.int64)
            ),
            "offset_bounds": np.asarray(self._offset_bounds, dtype=np.int64),
            "has_offsets": np.asarray(self._has_offsets, dtype=np.uint8),
        }
        for name, arr in index.items():
            np.save(self._tmp / f"{name}.npy", arr)
            self._checksums[f"{name}.npy"] = array_checksum(arr)
        manifest = {
            "version": STREAM_VERSION,
            "workload": self.meta.workload,
            "width": self.meta.width,
            "height": self.meta.height,
            "filter_mode": self.meta.filter_mode,
            "n_frames": self.meta.n_frames,
            "chunk_refs": self.chunk_refs,
            "n_chunks": self._n_chunks,
            "stream_length": self._total,
            "textures": [
                {
                    "name": t.name,
                    "width": t.width,
                    "height": t.height,
                    "original_depth_bits": t.original_depth_bits,
                }
                for t in self.textures
            ],
            "checksums": self._checksums,
        }
        manifest_path = self._tmp / _MANIFEST
        manifest_path.write_text(json.dumps(manifest, indent=1))
        with open(manifest_path, "rb") as fh:
            os.fsync(fh.fileno())
        # Publish: replace any existing trace directory in one rename.
        if self.path.exists():
            old = Path(
                tempfile.mkdtemp(dir=self.path.parent, prefix=f".{self.path.name}.old.")
            )
            os.replace(self.path, old / "trace")
            shutil.rmtree(old, ignore_errors=True)
        os.replace(self._tmp, self.path)
        self._closed = True
        return self.path

    def abort(self) -> None:
        """Discard the partial tmp directory (leaves ``path`` untouched)."""
        if not self._closed:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._closed = True

    def __enter__(self) -> "StreamTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def save_stream(
    trace: Trace, path: str | os.PathLike, chunk_refs: int = DEFAULT_CHUNK_REFS
) -> Path:
    """Write an in-RAM :class:`Trace` as a streamed trace directory."""
    with StreamTraceWriter(path, trace.meta, trace.textures, chunk_refs) as w:
        for frame in trace.frames:
            w.append_frame(frame)
    return Path(path)


# ----------------------------------------------------------------------
class _ChunkCache:
    """Mmap'd chunk loader with first-touch CRC verification and a tiny LRU."""

    def __init__(self, trace: "StreamingTrace", capacity: int = 4):
        self._trace = trace
        self._capacity = capacity
        self._cache: dict[str, np.ndarray] = {}
        self._verified: set[str] = set()

    def get(self, kind: str, index: int) -> np.ndarray:
        name = _chunk_name(kind, index)
        arr = self._cache.get(name)
        if arr is not None:
            # LRU refresh: move to the back.
            self._cache[name] = self._cache.pop(name)
            return arr
        path = self._trace.path / name
        try:
            arr = np.load(path, mmap_mode="r")
        except (FileNotFoundError, OSError, ValueError, EOFError) as exc:
            self._trace._quarantine(name)
            raise TraceCorruptionError(
                self._trace.path,
                f"chunk {name!r} unreadable: {exc}",
                missing_array=name if isinstance(exc, FileNotFoundError) else None,
            ) from exc
        if name not in self._verified:
            expected = self._trace.checksums.get(name)
            if expected is not None and array_checksum(arr) != expected:
                del arr  # release the mmap before moving the file
                self._trace._quarantine(name)
                raise TraceCorruptionError(
                    self._trace.path,
                    f"chunk {name!r} fails its checksum (bit flip or content swap)",
                )
            self._verified.add(name)
        # A plain ndarray over the mmap: slices of it keep the mapping alive
        # after eviction, without memmap's per-operation subclass hooks.
        arr = arr.view(np.ndarray)
        self._cache[name] = arr
        while len(self._cache) > self._capacity:
            self._cache.pop(next(iter(self._cache)))
        return arr


class _SpanFrame(FrameTrace):
    """A frame whose span of the stream crosses chunk edges.

    :meth:`blocks` pulls its chunks through the trace's chunk cache one at
    a time, so simulating the frame copies nothing and maps no more than
    the cache holds. ``refs`` and ``weights`` concatenate the pieces on
    first read, for the consumers that still need the whole frame as one
    array: the analytic models (``analytic/``), the per-object locality
    classification (``trace/locality.py::classify_locality``), the tenant
    merge (``tenancy/schedule.py``), the direct L1 loops of
    ``experiments/exp_ablations.py`` and ``trace_info tenants``.
    """

    def __init__(
        self,
        trace: "StreamingTrace",
        start: int,
        stop: int,
        n_fragments: int,
        object_offsets: np.ndarray | None,
    ):
        self._trace = trace
        self._span = (start, stop)
        self.n_fragments = n_fragments
        self.object_offsets = object_offsets

    @cached_property
    def refs(self) -> np.ndarray:
        return self._trace._read_span("refs", *self._span)

    @cached_property
    def weights(self) -> np.ndarray:
        return self._trace._read_span("weights", *self._span)

    def blocks(self, size: int):
        t = self._trace
        yield from zip(
            t._pieces("refs", *self._span, size),
            t._pieces("weights", *self._span, size),
        )


class _StreamFrames:
    """Lazy ``Sequence[FrameTrace]`` over a streamed trace's chunks."""

    def __init__(self, trace: "StreamingTrace"):
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.meta.n_frames

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i: int) -> FrameTrace:
        n = len(self)
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        t = self._trace
        start, stop = int(t.frame_starts[i]), int(t.frame_starts[i + 1])
        n_fragments = int(t.n_fragments_per_frame[i])
        if t.has_offsets[i]:
            lo, hi = int(t.offset_bounds[i]), int(t.offset_bounds[i + 1])
            offsets = t.offsets_cat[lo:hi]
        else:
            offsets = None
        if stop - start > t.chunk_refs - start % t.chunk_refs:
            # The span runs past the end of its first chunk.
            return _SpanFrame(t, start, stop, n_fragments, offsets)
        return FrameTrace(
            refs=t._read_span("refs", start, stop),
            weights=t._read_span("weights", start, stop),
            n_fragments=n_fragments,
            object_offsets=offsets,
        )


class StreamingTrace(Trace):
    """Read side of a streamed trace directory.

    A :class:`~repro.trace.trace.Trace` whose ``frames`` is a lazy
    sequence that builds one frame at a time from the mmap'd chunks.
    Frames are views of those chunks, never copies (see the module
    docstring), so peak memory is a few chunks regardless of trace or
    frame length.
    """

    def __init__(self, path: str | os.PathLike, verify: bool = True):
        self.path = Path(path)
        manifest_path = self.path / _MANIFEST
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            raise
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceCorruptionError(
                self.path, f"manifest undecodable: {exc}"
            ) from exc
        version = manifest.get("version")
        if version != STREAM_VERSION:
            raise TraceFormatError(
                f"streamed trace {self.path} has format version {version}, "
                f"expected {STREAM_VERSION}"
            )
        self.manifest = manifest
        super().__init__(
            meta=TraceMeta(
                workload=manifest["workload"],
                width=manifest["width"],
                height=manifest["height"],
                filter_mode=manifest["filter_mode"],
                n_frames=manifest["n_frames"],
            ),
            frames=_StreamFrames(self),
            textures=[
                Texture(
                    name=t["name"],
                    width=t["width"],
                    height=t["height"],
                    original_depth_bits=t["original_depth_bits"],
                )
                for t in manifest["textures"]
            ],
        )
        self.chunk_refs = int(manifest["chunk_refs"])
        self.n_chunks = int(manifest["n_chunks"])
        self.stream_length = int(manifest["stream_length"])
        self.checksums: dict[str, int] = (
            manifest.get("checksums", {}) if verify else {}
        )
        self.frame_starts = self._index("frame_starts")
        self.n_fragments_per_frame = self._index("n_fragments")
        self.offsets_cat = self._index("offsets_cat")
        self.offset_bounds = self._index("offset_bounds")
        self.has_offsets = self._index("has_offsets").astype(bool)
        if (
            len(self.frame_starts) != self.meta.n_frames + 1
            or len(self.n_fragments_per_frame) != self.meta.n_frames
            or int(self.frame_starts[-1]) != self.stream_length
        ):
            raise TraceCorruptionError(
                self.path, "index arrays inconsistent with the manifest"
            )
        self._chunks = _ChunkCache(self)

    # ------------------------------------------------------------------
    def _index(self, name: str) -> np.ndarray:
        fname = f"{name}.npy"
        try:
            arr = np.load(self.path / fname)
        except (FileNotFoundError, OSError, ValueError, EOFError) as exc:
            raise TraceCorruptionError(
                self.path,
                f"index {fname!r} unreadable: {exc}",
                missing_array=fname if isinstance(exc, FileNotFoundError) else None,
            ) from exc
        expected = self.checksums.get(fname)
        if expected is not None and array_checksum(arr) != expected:
            raise TraceCorruptionError(
                self.path, f"index {fname!r} fails its checksum"
            )
        return arr

    def _quarantine(self, name: str) -> None:
        """Move a damaged chunk aside so reruns fail fast, not subtly."""
        qdir = self.path / "quarantine"
        try:
            qdir.mkdir(exist_ok=True)
            os.replace(self.path / name, qdir / name)
        except OSError:
            pass  # quarantine is best-effort; the corruption error still raises

    def _pieces(self, kind: str, start: int, stop: int, size: int):
        """Read-only views of entries ``[start, stop)`` of the ``kind``
        stream, in order, cut at every chunk edge and every ``size``
        entries. Each chunk is fetched only when its first piece is due."""
        pos = start
        while pos < stop:
            ci, off = divmod(pos, self.chunk_refs)
            n = min(stop - pos, self.chunk_refs - off, size)
            yield self._chunks.get(kind, ci)[off : off + n]
            pos += n

    def _read_span(self, kind: str, start: int, stop: int) -> np.ndarray:
        """Entries ``[start, stop)`` of the ``kind`` stream as one array:
        a view of the chunk when the span lies in one, else a concatenated
        copy."""
        pieces = list(self._pieces(kind, start, stop, self.chunk_refs))
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def verify(self) -> VerifyReport:
        """Checksum every chunk and index file without quarantining.

        A damaged chunk is charged to every frame whose span of the global
        stream overlaps it; a damaged index file to every frame.
        """
        report = VerifyReport(
            path=str(self.path),
            version=STREAM_VERSION,
            n_frames=self.meta.n_frames,
        )
        checksums = self.manifest.get("checksums", {})
        names = [(f"{n}.npy", None) for n in _INDEX_FILES] + [
            (_chunk_name(kind, ci), ci)
            for ci in range(self.n_chunks)
            for kind in ("refs", "weights")
        ]
        all_frames = range(self.meta.n_frames)
        for name, ci in names:
            try:
                arr = np.load(self.path / name, mmap_mode="r")
            except FileNotFoundError:
                status = "missing"
            except (OSError, ValueError, EOFError):
                status = "unreadable"
            else:
                expected = checksums.get(name)
                if expected is None:
                    status = "unchecksummed"
                elif array_checksum(arr) != expected:
                    status = "checksum-mismatch"
                else:
                    status = "ok"
                del arr  # release the mmap
            check = ArrayCheck(name, status)
            report.checks.append(check)
            if check.ok:
                continue
            frames = all_frames if ci is None else self._frames_reading(ci)
            for f in frames:
                report.frame_problems.setdefault(int(f), status)
        return report

    def _frames_reading(self, ci: int) -> np.ndarray:
        """Frames whose (non-empty) span overlaps stream chunk ``ci``."""
        lo = ci * self.chunk_refs
        hi = min(lo + self.chunk_refs, self.stream_length)
        starts, stops = self.frame_starts[:-1], self.frame_starts[1:]
        return np.flatnonzero((starts < hi) & (stops > lo) & (stops > starts))


def open_trace(path: str | os.PathLike, verify: bool = True) -> StreamingTrace:
    """Open a trace directory as a :class:`StreamingTrace`.

    A path that exists but is not a directory (such as a ``.npz`` archive
    from the retired single-file format) raises
    :class:`~repro.errors.TraceFormatError` and is left untouched; a
    missing path raises :class:`FileNotFoundError`.
    """
    p = Path(path)
    if p.exists() and not p.is_dir():
        raise TraceFormatError(
            f"{p} is not a trace directory; single-file (.npz) traces are "
            "no longer read, so re-render it as a .stream directory with "
            "python -m repro.tools.render"
        )
    return StreamingTrace(p, verify=verify)
