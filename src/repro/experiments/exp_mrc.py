"""Analytic miss-ratio curves vs transaction-accurate points (``mrc``).

Three sections:

1. **Fig 9 overlay** — the single-pass set-sampled stack-distance sweep
   predicts the L1 miss rate at every Fig 9 size, overlaid on freshly
   simulated transaction-accurate points (both filter modes). Agreement is
   asserted within :data:`~repro.experiments.config.MRC_TOLERANCE_PP`
   percentage points; if set-sampling ever exceeds it, the sweep re-runs
   exact (per-set profiling is bit-identical to the simulator). The sims
   are timed fresh per size so the wall-clock comparison with the analytic
   sweep is honest even when other experiments already populated the
   simulation cache.
2. **Tables 5/6 overlay** — the fully-associative LRU curve over the L2's
   block stream at the scaled 2/4/8 MB points, next to the simulated clock
   block-residency rate (full + partial hits) and the offline Belady OPT
   bound.
3. **§4 histograms** — per-locality-class stack-distance histograms, the
   quantitative backing of the locality decomposition.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.analytic import l1_mrc_sweep, l2_block_mrc, opt_l2_result, reuse_distance_histograms
from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.experiments.config import (
    L1_LOW_BYTES,
    L1_SIZE_SWEEP,
    MRC_HASH_SAMPLE_TARGET,
    MRC_SET_SAMPLE,
    MRC_SET_SAMPLE_FLOOR,
    MRC_SWEEP_TARGET_REFS,
    MRC_TOLERANCE_PP,
    Scale,
    scaled_l2_sizes,
)
from repro.experiments.reporting import ExperimentResult, format_table, pct
from repro.experiments.simcache import run_hierarchy
from repro.experiments.traces import get_trace
from repro.texture.sampler import FilterMode
from repro.trace.stream import open_trace

__all__ = ["run"]


def _fresh_sim_miss_rate(trace, l1_bytes: int) -> tuple[float, float]:
    """Transaction-accurate L1 miss rate, timed without the memo cache."""
    start = time.perf_counter()
    sim = MultiLevelTextureCache(
        HierarchyConfig(l1=L1CacheConfig(size_bytes=l1_bytes)), trace.address_space
    )
    result = sim.run_trace(trace)
    return 1.0 - result.l1_hit_rate, time.perf_counter() - start


def _stream_refs(trace) -> int:
    """Collapsed refs in the trace, counted block by block so no frame that
    spans chunks is assembled just to be measured."""
    return sum(len(refs) for f in trace.frames for refs, _ in f.blocks(sys.maxsize))


def _pick_sample(n_refs: int) -> float:
    """Halve the set-sampling rate until the sampled stream fits the target.

    Power-of-two fractions keep the kept sets evenly strided; the floor
    bounds the worst-case estimate error (measured <= ~0.3 pp there,
    against a 1 pp tolerance with an exact fallback).
    """
    sample = MRC_SET_SAMPLE
    while sample > MRC_SET_SAMPLE_FLOOR + 1e-12 and n_refs * sample > MRC_SWEEP_TARGET_REFS:
        sample /= 2
    return sample


def _fig9_section(trace, mode_name: str) -> tuple[str, dict]:
    sample = _pick_sample(_stream_refs(trace))
    # Best of two runs on BOTH sides: the first call pays one-time
    # page-fault/allocator warm-up for large temporaries, and a noisy host
    # can slow either side arbitrarily — min-of-two measures the work, not
    # the scheduler.
    analytic_s = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        sweep = l1_mrc_sweep(trace, L1_SIZE_SWEEP, sample=sample)
        analytic_s = min(analytic_s, time.perf_counter() - start)

    # Every timed run computes its L1 stage: the trace is freshly opened
    # (fingerprinted, so no chunk CRC is timed), and each round runs the
    # sizes in turn, so no run follows one of its own L1 and none replays
    # an L1 record (DESIGN §8.4).
    fresh = open_trace(trace.path)
    fresh.fingerprint()
    sim_rates = {}
    best = dict.fromkeys(L1_SIZE_SWEEP, float("inf"))
    for _ in range(2):
        for size in L1_SIZE_SWEEP:
            sim_rates[size], elapsed = _fresh_sim_miss_rate(fresh, size)
            best[size] = min(best[size], elapsed)
    sim_times = list(best.values())

    sample_used = sample
    errs = {
        s: abs(sweep[s].miss_rate - sim_rates[s]) * 100.0 for s in L1_SIZE_SWEEP
    }
    if max(errs.values()) > MRC_TOLERANCE_PP:
        # Set-sampling overshot the tolerance: redo exact (bit-identical).
        sweep = l1_mrc_sweep(trace, L1_SIZE_SWEEP, sample=1.0)
        sample_used = 1.0
        errs = {
            s: abs(sweep[s].miss_rate - sim_rates[s]) * 100.0 for s in L1_SIZE_SWEEP
        }

    two_sims_s = sum(sim_times[:2])
    refs_profiled = sum(pt.accesses for pt in sweep.values())
    rows = [
        [
            f"{size // 1024} KB",
            f"{sim_rates[size]:.5f}",
            f"{sweep[size].miss_rate:.5f}",
            f"{errs[size]:.3f}",
        ]
        for size in L1_SIZE_SWEEP
    ]
    lines = [
        f"-- village, {mode_name}: Fig 9 overlay "
        f"(set-sample {sample_used:g}) --",
        format_table(
            ["L1 size", "sim miss rate", "analytic miss rate", "|err| pp"], rows
        ),
        f"analytic sweep {analytic_s:.3f}s vs two sims {two_sims_s:.3f}s "
        f"(full 5-size sim sweep {sum(sim_times):.3f}s)",
    ]
    data = {
        "sizes": {
            size: {
                "sim_miss_rate": sim_rates[size],
                "analytic_miss_rate": sweep[size].miss_rate,
                "abs_err_pp": errs[size],
            }
            for size in L1_SIZE_SWEEP
        },
        "max_abs_err_pp": max(errs.values()),
        "within_tolerance": max(errs.values()) <= MRC_TOLERANCE_PP,
        "sample": sample_used,
        "timing": {
            "analytic_s": analytic_s,
            "two_sims_s": two_sims_s,
            "sim_sweep_s": sum(sim_times),
            "faster_than_two_sims": analytic_s < two_sims_s,
            "refs_per_s": refs_profiled / analytic_s if analytic_s > 0 else 0.0,
        },
    }
    return "\n".join(lines), data


def _l2_section(trace, scale: Scale) -> tuple[str, dict]:
    labels_sizes = scaled_l2_sizes(scale)
    configs = [
        (label, L2CacheConfig(size_bytes=size)) for label, size in labels_sizes
    ]
    capacities = [cfg.n_blocks for _, cfg in configs]
    # Adapt the hash-sampling rate to the L1 miss-stream length, which
    # the (memoized) pull run counts.
    n_misses = run_hierarchy(trace, l1_bytes=L1_LOW_BYTES).total_l1_misses
    rate = min(1.0, MRC_HASH_SAMPLE_TARGET / max(n_misses, 1))
    curve = l2_block_mrc(trace, L1_LOW_BYTES, capacities, sample=rate)

    rows = []
    data_sizes = {}
    opt_ge_clock = True
    for (label, size), (_, cfg) in zip(labels_sizes, configs):
        sim = run_hierarchy(trace, l1_bytes=L1_LOW_BYTES, l2_bytes=size)
        clock_hit = sim.l2_full_hit_rate + sim.l2_partial_hit_rate
        cap_idx = int(np.searchsorted(curve.capacities, cfg.n_blocks))
        lru_hit = float(curve.hit_ratios[cap_idx])
        opt = opt_l2_result(trace, L1_LOW_BYTES, cfg)
        opt_hit = (
            1.0 - opt.full_misses / opt.accesses if opt.accesses else 0.0
        )
        opt_ge_clock &= opt_hit >= clock_hit - 1e-12
        data_sizes[label] = {
            "n_blocks": cfg.n_blocks,
            "clock_block_hit": clock_hit,
            "analytic_lru_block_hit": lru_hit,
            "opt_block_hit": opt_hit,
            "clock_gap_to_opt": opt_hit - clock_hit,
        }
        rows.append(
            [
                label,
                str(cfg.n_blocks),
                pct(clock_hit),
                pct(lru_hit),
                pct(opt_hit),
                f"{100 * (opt_hit - clock_hit):.2f} pp",
            ]
        )
    lines = [
        "-- village, trilinear, 2 KB L1: Tables 5/6 overlay "
        f"(block-residency rates, hash-sample {rate:g}) --",
        format_table(
            ["L2 size", "blocks", "sim clock", "analytic LRU", "OPT bound", "clock gap"],
            rows,
        ),
    ]
    return "\n".join(lines), {
        "sizes": data_sizes,
        "hash_sample": rate,
        "opt_ge_clock": opt_ge_clock,
    }


def _histogram_section(trace) -> tuple[str, dict]:
    hists = reuse_distance_histograms(trace, 16)
    rows = []
    for name, row in hists.per_class.items():
        total = int(row.sum())
        cells = [name, f"{total:,}"]
        cells += [
            f"{v / total:.1%}" if total else "-" for v in row.tolist()
        ]
        rows.append(cells)
    lines = [
        "-- village, bilinear: stack-distance histograms by §4 class "
        "(16x16 blocks) --",
        format_table(["class", "total"] + hists.bin_labels, rows),
    ]
    data = {
        "bin_labels": hists.bin_labels,
        "per_class": {k: v.tolist() for k, v in hists.per_class.items()},
        "entries": hists.entries,
    }
    return "\n".join(lines), data


def run(scale: Scale | None = None) -> ExperimentResult:
    """Overlay analytic curves on the transaction-accurate points."""
    scale = scale or Scale.from_env()
    sections = []
    data: dict = {}
    for mode in (FilterMode.BILINEAR, FilterMode.TRILINEAR):
        trace = get_trace("village", scale, mode)
        text, mode_data = _fig9_section(trace, mode.value)
        sections.append(text)
        data[mode.value] = mode_data

    tri_trace = get_trace("village", scale, FilterMode.TRILINEAR)
    text, l2_data = _l2_section(tri_trace, scale)
    sections.append(text)
    data["l2"] = l2_data

    bi_trace = get_trace("village", scale, FilterMode.BILINEAR)
    text, hist_data = _histogram_section(bi_trace)
    sections.append(text)
    data["histograms"] = hist_data

    worst = max(data[m]["max_abs_err_pp"] for m in ("bilinear", "trilinear"))
    summary = (
        f"\nmax |analytic - sim| = {worst:.3f} pp "
        f"(tolerance {MRC_TOLERANCE_PP:g} pp); "
        "OPT bound >= clock at every L2 size: "
        f"{data['l2']['opt_ge_clock']}"
    )
    return ExperimentResult(
        experiment_id="mrc",
        title="Analytic miss-ratio curves vs transaction-accurate points",
        text="\n\n".join(sections) + summary,
        data=data,
        scale_name=scale.name,
    )
