"""Grow-only named scratch buffers for the render loop's hot kernels.

The rasterizer (:mod:`repro.raster.batch`), the footprint kernel
(:mod:`repro.texture.sampler`) and run collapse (:mod:`repro.trace.events`)
each take an optional :class:`Workspace` and write every row-, block- and
fragment-sized array into it with ``out=``. A renderer passes one
workspace to all of them for a whole render loop, so after the first
frames they allocate nothing sized to their input and fault in no fresh
page. Without one, each call makes a fresh workspace and its results own
their arrays. DESIGN §12.1 has the contract and the measurements.
"""

from __future__ import annotations

import mmap

import numpy as np

__all__ = ["Workspace"]

#: Buffers of at least this many bytes get an anonymous mapping of their
#: own. On the C heap, a buffer that lives for a whole render loop pins
#: heap pages that the arrays freed around it cannot return: a cold bench
#: ``table2`` peaked ~50% higher with every buffer on the heap.
MAPPED_BYTES = 1 << 20


class Workspace:
    """Grow-only named scratch buffers, reused across calls.

    :meth:`buffer` returns a view of the first entries of the buffer of
    that name and allocates only when the buffer is missing, too short,
    or of another dtype; it then at least doubles, so a slowly growing
    size reallocates rarely. Pages past what a call writes are never
    touched. A view stays valid until the next request for that name, so
    every caller sharing a workspace owns its own names.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._iota = np.empty(0, dtype=np.int64)

    def buffer(
        self, name: str, n: int, dtype=np.float64, rows: int = 0
    ) -> np.ndarray:
        """``n`` entries of buffer ``name``; ``(rows, n)`` when ``rows``."""
        size = n * rows if rows else n
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or len(buf) < size:
            grown = 0 if buf is None else 2 * len(buf)
            buf = self._buffers[name] = _allocate(max(size, grown), dtype)
        return buf[:size].reshape(rows, n) if rows else buf[:size]

    def iota(self, n: int) -> np.ndarray:
        """``np.arange(n)`` as a read-only view of a cached range."""
        if len(self._iota) < n:
            self._iota = np.arange(max(n, 2 * len(self._iota)), dtype=np.int64)
            self._iota.flags.writeable = False
        return self._iota[:n]


#: Mappings of at least this many bytes ask for transparent huge pages,
#: as numpy does for its own arrays of this size: one fault then maps
#: 2 MB instead of 4 KB.
HUGEPAGE_BYTES = 1 << 22


def _allocate(size: int, dtype) -> np.ndarray:
    """An uninitialized array; a large one is its own anonymous mapping,
    unmapped when the array dies."""
    dtype = np.dtype(dtype)
    nbytes = size * dtype.itemsize
    if nbytes < MAPPED_BYTES:
        return np.empty(size, dtype)
    pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if nbytes >= HUGEPAGE_BYTES and hasattr(mmap, "MADV_HUGEPAGE"):
        pages.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(pages, dtype=dtype, count=size)
