"""MIP-bias load shedding: trade texture sharpness for streaming work.

Neu's virtual-texturing design degrades *quality* before it degrades
*liveness*: when a frame budget cannot be met, sampling one MIP level
coarser quarters the texel (and page) traffic while every surface still
gets textured. This module makes that knob explicit so both the VT engine
and the QoS serving layer shed load the same way:

* :func:`shed_page_requests` coarsens a frame's visible pages
  (:func:`repro.raster.feedback.page_requests`) by a whole-frame MIP
  bias — each requested page is replaced by its ancestor ``bias`` levels
  up the MIP chain (first-touch order preserved, so streamer state stays
  deterministic);
* :func:`bias_cost_multiplier` is the matching cost model: the fraction
  of baseline texturing work that survives a given bias, used by the
  serving layer's load shedder to project how much an extra level of
  bias buys before it must defer whole frames.
"""

from __future__ import annotations

import numpy as np

from repro.raster.feedback import first_touch

__all__ = ["bias_cost_multiplier", "shed_page_requests"]

#: Work removed per MIP level: one level coarser = 1/4 the texels.
MIP_FALLOFF = 4.0


def bias_cost_multiplier(bias: int, falloff: float = MIP_FALLOFF) -> float:
    """Fraction of baseline texturing cost left under a shed MIP bias.

    ``bias=0`` is full quality (multiplier 1.0); each additional level
    divides the projected work by ``falloff`` (4x for square MIP chains).
    """
    if bias < 0:
        raise ValueError(f"bias must be >= 0, got {bias}")
    if falloff < 1.0:
        raise ValueError(f"falloff must be >= 1, got {falloff}")
    return falloff ** -bias


def shed_page_requests(mega, pages: np.ndarray, bias: int) -> np.ndarray:
    """One frame's visible ``pages`` under a whole-frame shed MIP bias.

    With ``bias=0`` the pages come back unchanged. With a positive bias,
    every requested page is replaced by its MIP ancestor ``bias`` levels
    coarser (clamped to each texture's coarsest level), then re-uniqued
    in first-touch order — several fine pages collapsing onto one coarse
    ancestor is precisely where the shed traffic savings come from.
    """
    if bias < 0:
        raise ValueError(f"bias must be >= 0, got {bias}")
    if bias == 0 or len(pages) == 0:
        return pages
    from repro.texture.tiling import unpack_tile_refs

    coarse = np.empty(len(pages), dtype=np.int64)
    for i, page in enumerate(pages):
        f = unpack_tile_refs(np.int64(page))
        k = min(bias, mega.coarsest_mip(int(f.tid)) - int(f.mip))
        coarse[i] = mega.ancestor(int(page), k) if k > 0 else int(page)
    return first_touch(coarse)
