"""Virtual texturing: demand-paged megatexture with graceful degradation.

The paper's L2 texture cache already behaves as virtual memory for
textures; this package pushes that design to its modern endpoint (Neu's
virtual texturing / id's megatexture): every scene texture lives in one
page-tiled virtual image, visible pages are discovered by a feedback
pass over the rasterizer's footprint samples, and pages stream in
asynchronously over a faulty link with deadlines, retry/backoff, and
bounded in-flight backpressure. A page that misses its deadline or
exhausts its retries never stalls the frame — the sampler transparently
falls back to the coarsest resident ancestor MIP page and the penalty is
quantified (pages degraded, MIP bias, stall-free rate).

Layers:

* :mod:`~repro.vt.megatexture` — page addressing over packed tile refs;
* :mod:`~repro.vt.residency` — pinned + LRU resident-page table;
* :mod:`~repro.vt.streaming` — deadline-bounded fetch queue;
* :mod:`~repro.vt.system` — the per-frame engine and its stats, wired
  into :class:`~repro.core.hierarchy.MultiLevelTextureCache` via
  :class:`~repro.vt.system.VtConfig`.
"""

from repro.vt.megatexture import MegaTexture
from repro.vt.residency import PageResidency
from repro.vt.streaming import PageRequest, PageStreamer
from repro.vt.system import (
    FRAME_VT_FLOAT_COLUMNS,
    FRAME_VT_INT_COLUMNS,
    FrameVtStats,
    VirtualTextureSystem,
    VtConfig,
)

__all__ = [
    "MegaTexture",
    "PageResidency",
    "PageRequest",
    "PageStreamer",
    "VtConfig",
    "FrameVtStats",
    "VirtualTextureSystem",
    "FRAME_VT_INT_COLUMNS",
    "FRAME_VT_FLOAT_COLUMNS",
]
