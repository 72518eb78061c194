"""The pipeline benchmark's workloads.

Each workload names a scene builder, a screen size, an animation length, a
filter mode and the cache hierarchies its one trace is simulated under.
Every hierarchy starts cold at frame 0, as in the paper.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.core.hierarchy import HierarchyConfig
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.experiments.config import Scale, scaled_l2_sizes
from repro.reliability.transfer import TransferPolicy
from repro.texture.sampler import FilterMode
from repro.texture.tiling import AddressSpace
from repro.vt.megatexture import MegaTexture
from repro.vt.system import VtConfig

__all__ = ["Workload", "WORKLOADS", "smoke"]

#: The paper's low-end L1: 2 KB, 2-way, 64-byte lines.
L1 = L1CacheConfig(size_bytes=2 * 1024)

#: The paper's TLB: 16 entries, round-robin.
TLB_ENTRIES = 16


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name on the command line.
        scene: key of :data:`repro.scenes.WORKLOAD_BUILDERS`.
        default_seed: the scene builder's own default seed.
        width / height / frames / filter_mode: what is rendered.
        configs: maps the trace's address space to ``(label, config)``
            pairs, simulated in order on the one trace.
        detail: the scene builder's size knob.
    """

    name: str
    scene: str
    default_seed: int
    width: int
    height: int
    frames: int
    filter_mode: FilterMode
    configs: Callable[[AddressSpace, "Workload"], list[tuple[str, HierarchyConfig]]]
    detail: float = 1.0


def _l2_sweep(space: AddressSpace, wl: Workload) -> list[tuple[str, HierarchyConfig]]:
    """The paper's 2/4/8 MB L2 sweep scaled to the screen (Tables 5-6)."""
    scale = Scale(wl.width, wl.height, wl.frames, wl.detail, wl.name)
    return [
        (
            f"l2-{label.replace(' ', '')}",
            HierarchyConfig(
                l1=L1,
                l2=L2CacheConfig(size_bytes=size, l2_tile_texels=16, policy="clock"),
                tlb_entries=TLB_ENTRIES,
                tlb_policy="round_robin",
            ),
        )
        for label, size in scaled_l2_sizes(scale)
    ]


def _l2_2mb(space: AddressSpace, wl: Workload) -> list[tuple[str, HierarchyConfig]]:
    """The sweep's first point only: the paper's 2 MB L2."""
    return _l2_sweep(space, wl)[:1]


def _vt(space: AddressSpace, wl: Workload) -> list[tuple[str, HierarchyConfig]]:
    """L1 plus demand-paged virtual texturing, no L2 or TLB, no faults.

    Sized like the ``vt`` experiment's clean run: 32-texel pages and a
    residency budget the Terrain cannot fit, so pages keep streaming.
    """
    pages = MegaTexture(space, 32).total_pages()
    resident = max(space.texture_count + 32, pages // 8)
    return [
        (
            "vt",
            HierarchyConfig(
                l1=L1,
                vt=VtConfig(
                    page_texels=32,
                    max_resident_pages=resident,
                    max_in_flight=32,
                    frame_budget_us=2000.0,
                    fetch_latency_us=20.0,
                    timeout_frames=4,
                    policy=TransferPolicy(max_retries=3),
                ),
            ),
        )
    ]


#: Why each workload is here is recorded with it in BENCHMARK.json: the
#: village sweep is simulation-heavy (one trace, three L2s), terrain-vt is
#: raster-heavy and bypasses the L2 and TLB, city-1024 has the largest
#: per-call arrays, stream and memory footprint.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="village-sweep",
            scene="village",
            default_seed=7,
            width=320,
            height=240,
            frames=12,
            filter_mode=FilterMode.TRILINEAR,
            configs=_l2_sweep,
        ),
        Workload(
            name="terrain-vt",
            scene="terrain",
            default_seed=23,
            width=320,
            height=240,
            frames=64,
            filter_mode=FilterMode.BILINEAR,
            configs=_vt,
        ),
        Workload(
            name="city-1024",
            scene="city",
            default_seed=11,
            width=1024,
            height=768,
            frames=3,
            filter_mode=FilterMode.TRILINEAR,
            configs=_l2_2mb,
        ),
    )
}


def smoke(wl: Workload) -> Workload:
    """A tiny variant of a workload for tests: same configs, little work."""
    return dataclasses.replace(wl, width=64, height=48, frames=2, detail=0.25)
