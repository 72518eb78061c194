"""Byte-identity tests for supervised parallel frame rendering.

The whole contract of :mod:`repro.raster.parallel` is that sharding the
camera path across worker processes changes wall-clock time and *nothing
else*: the merged ``.stream`` directory — chunk files, index arrays,
manifest CRCs — is byte-for-byte the serial render, for every workload,
and even when seeded chaos SIGKILLs every first shard attempt.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import traces
from repro.experiments.config import Scale
from repro.experiments.traces import (
    clamp_render_jobs,
    render_trace_stream,
    resolve_render_jobs,
)
from repro.tools import render as render_tool
from repro.errors import ConfigError
from repro.raster.parallel import plan_shards
from repro.reliability.chaos import ChaosPolicy
from repro.reliability.heartbeat import HeartbeatJournal
from repro.reliability.supervisor import SupervisorConfig
from repro.reliability.transfer import TransferPolicy
from repro.texture.sampler import FilterMode

MICRO = Scale(width=64, height=48, frames=5, detail=0.2, name="micro")

#: Short backoff so chaos-kill retries run in test time.
FAST = TransferPolicy(max_retries=2, backoff_base_us=5_000.0)


def dir_bytes(path) -> dict[str, bytes]:
    return {
        str(f.relative_to(path)): f.read_bytes()
        for f in sorted(Path(path).rglob("*"))
        if f.is_file()
    }


def dir_digest(path) -> dict[str, str]:
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in dir_bytes(path).items()
    }


class TestPlanShards:
    def test_covers_all_frames_contiguously(self):
        for n_frames in (1, 2, 5, 17, 100):
            for jobs in (1, 2, 4, 7):
                shards = plan_shards(n_frames, jobs)
                assert shards[0].lo == 0
                assert shards[-1].hi == n_frames
                for a, b in zip(shards, shards[1:]):
                    assert a.hi == b.lo  # contiguous, ordered
                assert all(s.n_frames > 0 for s in shards)

    def test_granularity_targets_two_per_worker(self):
        assert len(plan_shards(100, 4)) == 8
        assert len(plan_shards(3, 4)) == 3  # never more shards than frames


class TestByteIdentity:
    @pytest.mark.parametrize("workload", ["city", "village", "terrain"])
    def test_parallel_stream_equals_serial(self, workload, tmp_path):
        serial = tmp_path / "serial.stream"
        parallel = tmp_path / "parallel.stream"
        render_trace_stream(workload, MICRO, FilterMode.POINT, serial, workers=1)
        render_trace_stream(workload, MICRO, FilterMode.POINT, parallel, workers=3)
        assert dir_bytes(serial) == dir_bytes(parallel)
        # The manifest CRC table (what verify() trusts) is equal in
        # particular — a reader cannot tell which render produced which.
        ms = json.loads((serial / "manifest.json").read_text())
        mp = json.loads((parallel / "manifest.json").read_text())
        assert ms["checksums"] == mp["checksums"]

    def test_chaos_first_attempt_kills_still_byte_identical(self, tmp_path):
        serial = tmp_path / "serial.stream"
        chaotic = tmp_path / "chaos.stream"
        render_trace_stream("city", MICRO, FilterMode.POINT, serial, workers=1)
        hb_path = tmp_path / "hb.jsonl"
        render_trace_stream(
            "city",
            MICRO,
            FilterMode.POINT,
            chaotic,
            workers=3,
            supervisor=SupervisorConfig(
                retry=FAST,
                heartbeat_path=hb_path,
                chaos=ChaosPolicy(seed=11, kill_rate=1.0, max_attempt=1),
            ),
        )
        assert dir_bytes(serial) == dir_bytes(chaotic)
        hb = HeartbeatJournal(hb_path)
        # Every shard's first attempt was SIGKILLed and healed by requeue.
        assert len(hb.events("crash")) >= len(plan_shards(MICRO.frames, 3))
        assert len(hb.events("requeue")) >= len(plan_shards(MICRO.frames, 3))

    def test_no_shard_litter_left_behind(self, tmp_path):
        out = tmp_path / "out.stream"
        render_trace_stream("city", MICRO, FilterMode.POINT, out, workers=3)
        left = [p.name for p in tmp_path.iterdir() if p != out]
        assert left == []  # shard scratch root cleaned up


class TestResolveRenderJobs:
    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        monkeypatch.setattr(traces, "available_cpus", lambda: 8)

    def test_repro_jobs_takes_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_render_jobs() == 4

    @pytest.mark.parametrize("cpus, expect", [(1, 1), (2, 2), (3, 3), (16, 4)])
    def test_clamps_to_available_cpus(self, monkeypatch, cpus, expect):
        monkeypatch.setattr(traces, "available_cpus", lambda: cpus)
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_render_jobs() == expect
        assert clamp_render_jobs(4) == expect

    def test_render_cli_jobs_are_clamped(self, monkeypatch, tmp_path, capsys):
        # One CPU: `--jobs 4` renders serially and says so.
        monkeypatch.setattr(traces, "available_cpus", lambda: 1)
        calls = []

        def spy(*args, workers, **kw):
            calls.append(workers)
            return render_trace_stream(*args, workers=workers, **kw)

        monkeypatch.setattr(render_tool, "render_trace_stream", spy)
        out = tmp_path / "out.stream"
        assert render_tool.main(
            ["city", str(out), "--width", "32", "--height", "24", "--frames", "2",
             "--detail", "0.2", "--jobs", "4"]
        ) == 0
        assert calls == [1]
        assert "(1 job(s))" in capsys.readouterr().out

    def test_legacy_variable_is_ignored(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setenv("REPRO_RENDER_WORKERS", "3")
        assert resolve_render_jobs() == 1

    def test_repro_jobs_is_strictly_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "junk")
        with pytest.raises(ConfigError):
            resolve_render_jobs()
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ConfigError):
            resolve_render_jobs()
