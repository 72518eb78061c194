"""Test-only oracle: the per-access and per-triangle reference loops.

Production runs one engine per layer — the batched kernels in
:mod:`repro.core` and the batched rasterizer behind
:class:`repro.raster.pipeline.Renderer`. The plain loops those engines are
proven bit-identical against live here, where only tests and the kernel
benchmarks import them:

* :class:`ReferenceL1` — N-way per-set LRU lists;
* :class:`ReferenceL2` / :class:`ReferenceSetAssociativeL2` — the L2
  organizations with per-access loops;
* :class:`ReferenceTLB` — the page-table TLB with a per-access loop;
* :func:`rasterize_triangle` / :class:`ReferenceRenderer` — the
  per-triangle rasterizer and the renderer built on it;
* :func:`reference_footprint_tiles_grid` — texture footprints packed one
  tap at a time, which that renderer samples with;
* :func:`reference_hierarchy` — a hierarchy whose every level is an
  oracle;
* :class:`tests.oracle.appendix.AppendixL2Cache` — the paper's Appendix
  L2 pseudo-code transcribed line by line, which the production L2 is
  differentially tested against.
"""

from __future__ import annotations

from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l2_cache import SetAssociativeL2Cache
from repro.tenancy.partition import PartitionedL2
from repro.texture.tiling import AddressSpace

from tests.oracle.cache import (
    ReferenceL1,
    ReferenceL2,
    ReferenceSetAssociativeL2,
    ReferenceTLB,
)
from tests.oracle.footprint import reference_footprint_tiles_grid
from tests.oracle.raster import ReferenceRenderer, rasterize_triangle

__all__ = [
    "ReferenceL1",
    "ReferenceL2",
    "ReferenceSetAssociativeL2",
    "ReferenceTLB",
    "ReferenceRenderer",
    "rasterize_triangle",
    "reference_footprint_tiles_grid",
    "reference_hierarchy",
]


def _reference_l2(l2):
    if isinstance(l2, SetAssociativeL2Cache):
        return ReferenceSetAssociativeL2(l2.config, l2.space, ways=l2.ways)
    return ReferenceL2(l2.config, l2.space)


def reference_hierarchy(
    config: HierarchyConfig, space: AddressSpace
) -> MultiLevelTextureCache:
    """A :class:`MultiLevelTextureCache` running every level on its oracle.

    Builds the production hierarchy, then swaps in fresh oracle instances
    for the L1, the L2 (or each tenant partition of it) and the TLB.
    Everything else — VT, the faulty link, tenant attribution,
    checkpointing — is the production code.
    """
    sim = MultiLevelTextureCache(config, space)
    sim.l1 = ReferenceL1(config.l1)
    if isinstance(sim.l2, PartitionedL2):
        sim.l2.parts = [_reference_l2(p) for p in sim.l2.parts]
    elif sim.l2 is not None:
        sim.l2 = _reference_l2(sim.l2)
    if sim.tlb is not None:
        sim.tlb = ReferenceTLB(sim.tlb.n_entries, sim.tlb.policy)
    return sim
