"""Bench target for the batched L2/TLB simulation kernels.

Runs the paper's full architecture (2 KB L1, 2 MB-class L2 of 16x16
tiles, 16-entry round-robin TLB) end to end over the bench-scale City
and Village traces twice — once with the batched kernels, once with the
per-access reference loops of the test oracle (:mod:`tests.oracle`) — and
asserts the two contracts of the
kernels: bit-identical per-frame results and >= 3x end-to-end
simulation speedup, on both workloads.

Timings land in ``BENCH_l2_kernel.json`` at the repo root so successive
runs leave a trajectory of the kernel's throughput.

The comparison always runs at the fixed bench scale (not
``$REPRO_SCALE``): at tiny scales per-call overhead dominates and the
speedup floor would measure the harness, not the kernels.
"""

import json
import time
from pathlib import Path

from repro.core.hierarchy import MultiLevelTextureCache
from repro.experiments.config import Scale
from repro.experiments.simcache import build_config
from repro.experiments.traces import get_trace
from repro.texture.sampler import FilterMode
from repro.trace.stream import open_trace

from tests.oracle import reference_hierarchy

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_l2_kernel.json"
MIN_SPEEDUP = 3.0


def _run(trace, config, reference):
    # A freshly opened trace, so no earlier run's L1 record serves this one
    # (DESIGN §8.4); fingerprinting it CRC-checks every chunk before timing.
    trace = open_trace(trace.path)
    trace.fingerprint()
    make = reference_hierarchy if reference else MultiLevelTextureCache
    sim = make(config, trace.address_space)
    start = time.perf_counter()
    result = sim.run_trace(trace)
    return result, time.perf_counter() - start


def test_batched_kernels_speedup_and_identity(benchmark):
    scale = Scale.bench()
    config = build_config(
        l1_bytes=2048, l2_bytes=2 * 1024 * 1024 // 16, tlb_entries=16
    )
    traces = {
        w: get_trace(w, scale, FilterMode.TRILINEAR) for w in ("city", "village")
    }

    timings = {}
    for workload, trace in traces.items():
        batched, t_batched = _run(trace, config, reference=False)
        reference, t_reference = _run(trace, config, reference=True)
        assert batched.frames == reference.frames, (
            f"batched kernels diverged from the reference loops on {workload}"
        )
        timings[workload] = {
            "batched_s": t_batched,
            "reference_s": t_reference,
            "speedup": t_reference / t_batched,
            "l2_accesses": sum(f.l2.accesses for f in batched.frames),
        }

    for workload, timing in timings.items():
        assert timing["speedup"] >= MIN_SPEEDUP, (
            f"end-to-end hierarchy speedup regressed on {workload}: "
            f"{timing['speedup']:.2f}x < {MIN_SPEEDUP}x ({timing})"
        )

    ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "l2_kernel",
                "scale": scale.name,
                "config": repr(config),
                "min_speedup": MIN_SPEEDUP,
                "workloads": timings,
            },
            indent=2,
        )
        + "\n"
    )

    # Register the batched City run with pytest-benchmark for trend tracking.
    benchmark.pedantic(
        lambda: _run(traces["city"], config, reference=False),
        rounds=1,
        iterations=1,
    )
