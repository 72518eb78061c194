"""Software rendering pipeline (the paper's instrumented scene manager).

The paper instruments the Intel Scene Manager to trace every texel reference
during rasterization (§3). This package is the equivalent substrate: a
perspective-correct scanline triangle rasterizer with per-pixel MIP-level
selection, a z-buffer, and a pipeline that walks a scene per frame and emits
the 4x4-texel tile-reference stream the cache simulators replay.

Modules:

* :mod:`repro.raster.framebuffer` — color buffer with PPM output (Fig 12
  snapshots).
* :mod:`repro.raster.zbuffer` — depth buffer.
* :mod:`repro.raster.clipping` — near-plane polygon clipping in clip space.
* :mod:`repro.raster.rasterizer` — the fragment record and the scanline /
  tiled fragment orders.
* :mod:`repro.raster.batch` — triangle setup, edge-function coverage,
  perspective-correct attributes and analytic LOD gradients, vectorized
  over whole batches of triangles.
* :mod:`repro.raster.pipeline` — the per-frame renderer/tracer.
"""

from repro.raster.framebuffer import Framebuffer
from repro.raster.zbuffer import DepthBuffer
from repro.raster.clipping import clip_triangle_near
from repro.raster.rasterizer import Fragments, RasterOrder
from repro.raster.batch import FragmentBatch, rasterize_triangles
from repro.raster.pipeline import RenderOptions, Renderer, FrameOutput

__all__ = [
    "Framebuffer",
    "DepthBuffer",
    "clip_triangle_near",
    "Fragments",
    "FragmentBatch",
    "rasterize_triangles",
    "RasterOrder",
    "RenderOptions",
    "Renderer",
    "FrameOutput",
]
