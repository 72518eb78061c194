"""Reliability-facing CLI surfaces: trace_info --verify and simulate
--fault-rate."""

import numpy as np
import pytest

from repro.tools.render import main as render_main
from repro.tools.simulate import main as simulate_main
from repro.tools.trace_info import main as trace_info_main
from repro.trace.tracefile import load_trace

from tests.trace.test_tracefile_integrity import save_v2


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_rel") / "t.npz"
    rc = render_main(
        [
            "city", str(path),
            "--width", "96", "--height", "72", "--frames", "3",
            "--detail", "0.25", "--filter", "bilinear",
        ]
    )
    assert rc == 0
    return path


class TestTraceInfoVerify:
    def test_clean_trace_passes(self, trace_file, capsys):
        assert trace_info_main([str(trace_file), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "OK: all arrays verified" in out
        assert "format v3" in out
        assert "frame" in out  # per-frame integrity table

    def test_corrupt_trace_fails_nonzero(self, trace_file, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        raw = bytearray(trace_file.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        bad.write_bytes(bytes(raw))
        assert trace_info_main([str(bad), "--verify"]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out or "CORRUPT" in out

    def test_garbage_file_fails_nonzero(self, tmp_path, capsys):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"not an archive at all")
        assert trace_info_main([str(junk), "--verify"]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_v2_trace_fails_as_unsupported(self, trace_file, tmp_path, capsys):
        old = tmp_path / "v2.npz"
        save_v2(load_trace(trace_file), old)
        assert trace_info_main([str(old), "--verify"]) == 1
        assert "UNSUPPORTED" in capsys.readouterr().out


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
