"""Bench target for the batched L1 kernels.

Runs the bench-scale City trace through two L1 geometries, each twice —
once with the batched kernel, once with the per-access reference loop of
the test oracle (:class:`tests.oracle.ReferenceL1`):

* a 16 KB 4-way L1 on the recency-level stacked kernel;
* the paper's 2 KB 2-way L1 on the run kernel.

Each row asserts bit-identical per-frame results (miss counts *and* miss
streams) and equal state snapshots at every frame boundary, plus a
mid-trace checkpoint/resume (across engines for the stacked kernel, whose
snapshot format the loop shares; onto a fresh simulator for the run
kernel). The stacked row also asserts >= 3x frame-simulation speedup.

Timings land in ``BENCH_l1_kernel.json`` at the repo root so successive
runs leave a trajectory of the kernels' throughput; the 4-way row keeps
the top-level fields, the 2-way row sits under ``two_way``. The kernel
speedup is algorithmic (numpy passes vs a Python loop), so unlike the
render bench it is measurable — and enforced — on a single-core
container. Engines are interleaved round by round, round zero is warmup,
each keeps its best (the ``test_bench_raster`` methodology) so a cold
page cache right after the trace render cannot skew the ratio.

The comparison always runs at the fixed bench scale (not ``$REPRO_SCALE``):
at tiny scales per-call overhead dominates and the speedup floor would
measure the harness, not the kernel.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core.l1_cache import L1CacheConfig, L1CacheSim
from repro.experiments.config import Scale
from repro.experiments.traces import get_trace
from repro.texture.sampler import FilterMode

from tests.oracle import ReferenceL1

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_l1_kernel.json"
MIN_SPEEDUP = 3.0
ROUNDS = 2
STACKED = L1CacheConfig(size_bytes=16 * 1024, ways=4)
TWO_WAY = L1CacheConfig(size_bytes=2 * 1024, ways=2)


def _frames(trace, config):
    space = trace.address_space
    return [
        (f.refs, f.weights, space.l1_set_indices(f.refs, config.n_sets))
        for f in trace.frames
    ]


def _run(frames, config, reference):
    sim = ReferenceL1(config) if reference else L1CacheSim(config)
    results, snapshots = [], []
    start = time.perf_counter()
    for refs, weights, sets in frames:
        results.append(sim.access_frame(refs, weights, sets))
        snapshots.append(sim.snapshot_state())
    return results, snapshots, time.perf_counter() - start


def _general_sets(snapshot):
    """Any L1 snapshot as the loop's oldest-first per-set lists."""
    if snapshot["engine"] == "general":
        return snapshot["sets"]
    return [
        [int(t) for t in (lru, mru) if t != -1]
        for mru, lru in zip(snapshot["mru"], snapshot["lru"])
    ]


def _measure(frames, config):
    """Interleaved best-of timings plus the bit-identity contracts."""
    t_fast = t_ref = float("inf")
    for rnd in range(ROUNDS + 1):
        fast, fast_snaps, dt_fast = _run(frames, config, reference=False)
        ref, ref_snaps, dt_ref = _run(frames, config, reference=True)
        if rnd > 0:
            t_fast = min(t_fast, dt_fast)
            t_ref = min(t_ref, dt_ref)

    # Bit identity, per frame and at every frame boundary.
    for i, (a, b) in enumerate(zip(fast, ref)):
        assert a.misses == b.misses, f"frame {i} miss count diverged"
        assert np.array_equal(a.miss_refs, b.miss_refs), f"frame {i} miss stream"
    for i, (sa, sb) in enumerate(zip(fast_snaps, ref_snaps)):
        assert _general_sets(sa) == sb["sets"], f"frame {i} boundary state diverged"

    # A mid-trace checkpoint resumes and still matches the uninterrupted
    # reference: on the loop when the formats are shared, else on a fresh
    # simulator of the same engine.
    cut = len(frames) // 2
    shared = fast_snaps[cut]["engine"] == "general"
    resumed = ReferenceL1(config) if shared else L1CacheSim(config)
    resumed.restore_state(fast_snaps[cut])
    for i, (refs, weights, sets) in enumerate(frames[cut + 1 :], cut + 1):
        out = resumed.access_frame(refs, weights, sets)
        assert out.misses == ref[i].misses, f"resumed frame {i} diverged"
        assert np.array_equal(out.miss_refs, ref[i].miss_refs)

    accesses = sum(r.accesses for r in fast)
    return {
        "config": repr(config),
        "accesses": accesses,
        "kernel_s": t_fast,
        "reference_s": t_ref,
        "speedup": t_ref / t_fast,
        "kernel_accesses_per_s": accesses / t_fast,
        "reference_accesses_per_s": accesses / t_ref,
    }


def test_stacked_l1_kernel_speedup_and_identity(benchmark):
    scale = Scale.bench()
    trace = get_trace("city", scale, FilterMode.TRILINEAR)
    frames = _frames(trace, STACKED)
    stacked = _measure(frames, STACKED)
    two_way = _measure(_frames(trace, TWO_WAY), TWO_WAY)

    # The stacked kernel is why the general-associativity loop could be
    # retired from production runs.
    speedup = stacked["speedup"]
    assert speedup >= MIN_SPEEDUP, (
        f"stacked L1 kernel speedup regressed: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"({stacked})"
    )

    ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "l1_kernel",
                "scale": scale.name,
                "config": stacked["config"],
                "min_speedup": MIN_SPEEDUP,
                "accesses": stacked["accesses"],
                "stacked_s": stacked["kernel_s"],
                "reference_s": stacked["reference_s"],
                "speedup": speedup,
                "stacked_accesses_per_s": stacked["kernel_accesses_per_s"],
                "reference_accesses_per_s": stacked["reference_accesses_per_s"],
                "two_way": two_way,
            },
            indent=2,
        )
        + "\n"
    )

    # Register the stacked City run with pytest-benchmark for trend tracking.
    benchmark.pedantic(
        lambda: _run(frames, STACKED, reference=False), rounds=1, iterations=1
    )
