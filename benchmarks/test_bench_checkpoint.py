"""Bench target for checkpointed simulation overhead.

Runs the paper's full architecture over the bench-scale City trace three
ways — uncheckpointed, checkpointing every 4 frames, and resumed from the
last on-disk checkpoint — asserting the two contracts of the crash-safety
layer: the resumed run is bit-identical to the uninterrupted one, and
frame-granular checkpointing costs at most a bounded slowdown (it must
stay practical to leave on for long runs).

Timings land in ``BENCH_checkpoint.json`` at the repo root so successive
runs leave a trajectory of the checkpoint overhead.
"""

import json
import time
from pathlib import Path

from repro.core.hierarchy import MultiLevelTextureCache
from repro.experiments.config import Scale
from repro.experiments.simcache import build_config
from repro.experiments.traces import get_trace
from repro.reliability import checkpoint as ckpt
from repro.texture.sampler import FilterMode
from repro.trace.stream import open_trace

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_checkpoint.json"

#: Checkpointing every 4 frames may cost at most this slowdown factor.
MAX_OVERHEAD = 2.0
CHECKPOINT_EVERY = 4


def test_checkpoint_overhead_and_resume_identity(tmp_path, benchmark):
    scale = Scale.bench()
    trace = get_trace("city", scale, FilterMode.TRILINEAR)
    config = build_config(
        l1_bytes=2048, l2_bytes=2 * 1024 * 1024 // 16, tlb_entries=16
    )
    path = tmp_path / "bench.ckpt"

    def run(checkpointed, resume=False):
        # A freshly opened trace, so the plain run computes like the
        # checkpointed one instead of replaying an earlier run's L1 record
        # (DESIGN §8.4); fingerprinting it CRC-checks every chunk before
        # timing.
        fresh = open_trace(trace.path)
        fresh.fingerprint()
        sim = MultiLevelTextureCache(config, fresh.address_space)
        start = time.perf_counter()
        result = sim.run_trace(
            fresh,
            checkpoint_path=path if checkpointed else None,
            checkpoint_every=CHECKPOINT_EVERY if checkpointed else 0,
            resume=resume,
        )
        return result, time.perf_counter() - start

    plain, t_plain = run(checkpointed=False)
    checkpointed, t_ckpt = run(checkpointed=True)
    assert checkpointed.frames == plain.frames

    # The last intermediate checkpoint is still on disk; resuming replays
    # only the tail and must agree bit-for-bit with the full runs.
    resumed_at = ckpt.read_checkpoint(path).frame_index
    assert 0 < resumed_at < len(trace.frames)
    resumed, t_resume = run(checkpointed=True, resume=True)
    assert resumed.frames == plain.frames

    overhead = t_ckpt / t_plain
    assert overhead <= MAX_OVERHEAD, (
        f"checkpointing every {CHECKPOINT_EVERY} frames costs {overhead:.2f}x "
        f"(> {MAX_OVERHEAD}x); plain {t_plain:.2f}s vs {t_ckpt:.2f}s"
    )

    ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "checkpoint",
                "scale": scale.name,
                "config": repr(config),
                "checkpoint_every": CHECKPOINT_EVERY,
                "plain_s": t_plain,
                "checkpointed_s": t_ckpt,
                "overhead": overhead,
                "resumed_from_frame": resumed_at,
                "resume_tail_s": t_resume,
            },
            indent=2,
        )
        + "\n"
    )

    benchmark.pedantic(
        lambda: run(checkpointed=True), rounds=1, iterations=1
    )
