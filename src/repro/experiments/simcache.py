"""Shared cache-simulation results.

Several tables/figures consume the same hierarchy runs (Table 3 and Fig 10
share every configuration; Tables 5-7 share the L2 runs; Fig 9 and Table 2
share the pull runs). This module memoizes
:class:`~repro.core.hierarchy.TraceRunResult` per (trace identity, config)
so a full benchmark session simulates each configuration exactly once —
and backs the memo with the on-disk store
(:mod:`repro.experiments.simstore`), so later sessions don't simulate it
at all.

Sweeps call :func:`prewarm` with their full point list up front; with
``--jobs N`` the missing points are simulated across a process pool
(:mod:`repro.experiments.parallel`) before the serial presentation code
runs, which then finds every result memoized.
"""

from __future__ import annotations

from repro.core.hierarchy import HierarchyConfig, TraceRunResult
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.trace.trace import Trace

__all__ = [
    "simulate",
    "run_hierarchy",
    "build_config",
    "prewarm",
    "clear_simulation_cache",
]

_cache: dict[tuple, TraceRunResult] = {}


def clear_simulation_cache() -> None:
    """Drop all memoized simulation results (not the on-disk store)."""
    _cache.clear()


def _trace_key(trace: Trace) -> tuple:
    m = trace.meta
    return (m.workload, m.width, m.height, m.filter_mode, m.n_frames)


def simulate(trace: Trace, config: HierarchyConfig) -> TraceRunResult:
    """Run (or fetch) a hierarchy simulation for a trace."""
    prewarm([(trace, config)])
    return _cache[(_trace_key(trace), config)]


def prewarm(
    points: list[tuple[Trace, HierarchyConfig]], jobs: int | None = None
) -> None:
    """Resolve sweep points into the memo, in parallel where configured.

    Serial presentation code that subsequently calls :func:`simulate` on
    the same points gets memo hits, so its output is byte-identical to a
    fully serial run.
    """
    from repro.experiments.parallel import simulate_many

    todo: list[tuple[Trace, HierarchyConfig]] = []
    seen: set[tuple] = set()
    for trace, config in points:
        key = (_trace_key(trace), config)
        if key not in _cache and key not in seen:
            seen.add(key)
            todo.append((trace, config))
    if not todo:
        return
    for (trace, config), result in zip(todo, simulate_many(todo, jobs=jobs)):
        _cache[(_trace_key(trace), config)] = result


def build_config(
    l1_bytes: int,
    l2_bytes: int | None = None,
    l2_tile_texels: int = 16,
    tlb_entries: int | None = None,
    tlb_policy: str = "round_robin",
    l2_policy: str = "clock",
) -> HierarchyConfig:
    """The :class:`HierarchyConfig` the sizes-based sweeps simulate."""
    l2 = (
        L2CacheConfig(
            size_bytes=l2_bytes, l2_tile_texels=l2_tile_texels, policy=l2_policy
        )
        if l2_bytes is not None
        else None
    )
    return HierarchyConfig(
        l1=L1CacheConfig(size_bytes=l1_bytes),
        l2=l2,
        tlb_entries=tlb_entries,
        tlb_policy=tlb_policy,
    )


def run_hierarchy(
    trace: Trace,
    l1_bytes: int,
    l2_bytes: int | None = None,
    l2_tile_texels: int = 16,
    tlb_entries: int | None = None,
    tlb_policy: str = "round_robin",
    l2_policy: str = "clock",
) -> TraceRunResult:
    """Convenience wrapper building the :class:`HierarchyConfig` by sizes."""
    config = build_config(
        l1_bytes=l1_bytes,
        l2_bytes=l2_bytes,
        l2_tile_texels=l2_tile_texels,
        tlb_entries=tlb_entries,
        tlb_policy=tlb_policy,
        l2_policy=l2_policy,
    )
    return simulate(trace, config)
