"""Reliability-facing CLI surfaces: trace_info --verify and simulate
--fault-rate."""

import numpy as np
import pytest

from repro.experiments.config import Scale
from repro.experiments.traces import render_trace_stream
from repro.texture.sampler import FilterMode
from repro.tools.render import main as render_main
from repro.tools.simulate import main as simulate_main
from repro.tools.trace_info import main as trace_info_main
from repro.trace.stream import StreamingTrace

from tests.trace.test_tracefile_integrity import save_v2


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_rel") / "t.stream"
    rc = render_main(
        [
            "city", str(path),
            "--width", "96", "--height", "72", "--frames", "3",
            "--detail", "0.25", "--filter", "bilinear",
        ]
    )
    assert rc == 0
    return path


def integrity_rows(out):
    """``{frame: status}`` from the per-frame table ``--verify`` prints."""
    rows = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].isdigit():
            rows[int(parts[0])] = parts[1]
    return rows


class TestTraceInfoVerify:
    def test_clean_trace_passes(self, trace_file, capsys):
        assert trace_info_main([str(trace_file), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "OK: all arrays verified" in out
        assert "format v1" in out
        assert integrity_rows(out) == {0: "ok", 1: "ok", 2: "ok"}

    def test_corrupt_trace_fails_nonzero(self, trace_file, tmp_path, capsys):
        bad = tmp_path / "bad.stream"
        bad.mkdir()
        for f in trace_file.iterdir():
            (bad / f.name).write_bytes(f.read_bytes())
        chunk = bad / "refs_00000.npy"
        raw = bytearray(chunk.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        chunk.write_bytes(bytes(raw))
        assert trace_info_main([str(bad), "--verify"]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED: refs_00000.npy: checksum-mismatch" in out

    def test_garbage_file_fails_nonzero(self, tmp_path, capsys):
        junk = tmp_path / "junk.stream"
        junk.mkdir()
        (junk / "manifest.json").write_bytes(b"not a manifest at all")
        assert trace_info_main([str(junk), "--verify"]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_v2_trace_fails_as_unsupported(self, trace_file, tmp_path, capsys):
        old = tmp_path / "v2.npz"
        save_v2(StreamingTrace(trace_file), old)
        raw = old.read_bytes()
        assert trace_info_main([str(old), "--verify"]) == 1
        out = capsys.readouterr().out
        assert "UNSUPPORTED" in out and "re-render" in out
        assert old.read_bytes() == raw  # refused, not quarantined
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v2.npz"]

    def test_damaged_chunk_marks_only_the_frames_reading_it(
        self, tmp_path, capsys
    ):
        scale = Scale(width=96, height=72, frames=6, detail=0.25, name="cli")
        path = tmp_path / "t.stream"
        chunk_refs = 4000
        st = render_trace_stream(
            "village", scale, FilterMode.BILINEAR, path, chunk_refs=chunk_refs
        )
        starts = st.frame_starts
        assert st.n_chunks >= 3
        # A middle chunk: some frames read it, some do not.
        ci = st.n_chunks // 2
        lo, hi = ci * chunk_refs, (ci + 1) * chunk_refs
        expected = {
            f for f in range(scale.frames)
            if starts[f] < hi and starts[f + 1] > lo and starts[f + 1] > starts[f]
        }
        assert expected and len(expected) < scale.frames
        chunk = path / f"weights_{ci:05d}.npy"
        raw = bytearray(chunk.read_bytes())
        raw[-1] ^= 0xFF
        chunk.write_bytes(bytes(raw))

        assert trace_info_main([str(path), "--verify"]) == 1
        out = capsys.readouterr().out
        rows = integrity_rows(out)
        assert sorted(rows) == list(range(scale.frames))
        assert {f for f, status in rows.items() if status != "ok"} == expected
        assert {rows[f] for f in expected} == {"checksum-mismatch"}
        assert f"DAMAGED: weights_{ci:05d}.npy: checksum-mismatch" in out


class TestSimulateFaults:
    def test_fault_rows_reported(self, trace_file, capsys):
        rc = simulate_main(
            [str(trace_file), "--l1-kb", "2", "--fault-rate", "0.05",
             "--max-retries", "2", "--fault-seed", "7"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "retried transfers" in out
        assert "effective AGP MB/frame" in out
        assert "degraded frames" in out

    def test_fault_free_run_has_no_fault_rows(self, trace_file, capsys):
        assert simulate_main([str(trace_file), "--l1-kb", "2"]) == 0
        out = capsys.readouterr().out
        assert "retried transfers" not in out

    def test_seeded_runs_identical(self, trace_file, capsys):
        args = [str(trace_file), "--l1-kb", "2", "--fault-rate", "0.1",
                "--fault-seed", "3"]
        assert simulate_main(args) == 0
        first = capsys.readouterr().out
        assert simulate_main(args) == 0
        second = capsys.readouterr().out
        # Identical modulo the wall-clock line.
        strip = lambda s: [l for l in s.splitlines() if "simulation time" not in l]
        assert strip(first) == strip(second)
