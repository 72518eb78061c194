"""Tests for the command-line tools (render / trace_info / simulate)."""

import pytest

from repro.tools.render import main as render_main
from repro.tools.simulate import main as simulate_main
from repro.tools.trace_info import main as trace_info_main
from repro.trace.stream import open_trace


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "t.stream"
    rc = render_main(
        [
            "city", str(path),
            "--width", "96", "--height", "72", "--frames", "3",
            "--detail", "0.25", "--filter", "bilinear",
        ]
    )
    assert rc == 0
    return path


class TestRender:
    def test_writes_valid_trace(self, trace_file):
        trace = open_trace(trace_file)
        assert trace.meta.workload == "city"
        assert trace.meta.n_frames == 3
        assert trace.meta.filter_mode == "bilinear"

    def test_variant_flags(self, tmp_path):
        path = tmp_path / "z.stream"
        rc = render_main(
            [
                "city", str(path),
                "--width", "64", "--height", "48", "--frames", "2",
                "--detail", "0.2", "--z-first", "--tiled",
            ]
        )
        assert rc == 0
        trace = open_trace(path)
        assert trace.meta.workload == "city+zfirst+tiled"

    def test_unknown_workload_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            render_main(["metropolis", str(tmp_path / "x.stream")])


class TestRenderJobs:
    ARGS = ["--width", "64", "--height", "48", "--frames", "3", "--detail", "0.2"]

    def test_jobs_renders_identical_trace(self, tmp_path):
        serial, parallel = tmp_path / "s.stream", tmp_path / "p.stream"
        assert render_main(["city", str(serial), *self.ARGS, "--jobs", "1"]) == 0
        assert render_main(["city", str(parallel), *self.ARGS, "--jobs", "2"]) == 0
        names = sorted(p.name for p in serial.iterdir())
        assert names == sorted(p.name for p in parallel.iterdir())
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_jobs_stream_output(self, tmp_path):
        out = tmp_path / "p.stream"
        rc = render_main(
            ["city", str(out), *self.ARGS, "--jobs", "2"]
        )
        assert rc == 0
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("bad", ["junk", "0", "-2", "1.5"])
    def test_bad_jobs_rejected_with_typed_message(self, bad, tmp_path, capsys):
        with pytest.raises(SystemExit):
            render_main(["city", str(tmp_path / "x.stream"), *self.ARGS,
                         "--jobs", bad])
        err = capsys.readouterr().err
        assert "--jobs" in err

    def test_bad_repro_jobs_env_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "junk")
        with pytest.raises(SystemExit):
            render_main(["city", str(tmp_path / "x.stream"), *self.ARGS])
        assert "REPRO_JOBS" in capsys.readouterr().err

    def test_env_default_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        out = tmp_path / "env.stream"
        assert render_main(["city", str(out), *self.ARGS]) == 0
        assert out.exists()


class TestTraceInfo:
    def test_summary_printed(self, trace_file, capsys):
        assert trace_info_main([str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "depth complexity" in out
        assert "workload=city" in out
        assert "reuse distances" in out

    def test_l2_tile_option(self, trace_file, capsys):
        assert trace_info_main([str(trace_file), "--l2-tile", "32"]) == 0
        assert "32x32 blocks" in capsys.readouterr().out


class TestSimulate:
    def test_pull_configuration(self, trace_file, capsys):
        assert simulate_main([str(trace_file), "--l1-kb", "2"]) == 0
        out = capsys.readouterr().out
        assert "L1 hit rate" in out
        assert "L2 full-hit rate" not in out

    def test_l2_configuration(self, trace_file, capsys):
        rc = simulate_main(
            [
                str(trace_file), "--l1-kb", "2", "--l2-kb", "64",
                "--tlb", "4", "--fps", "30",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "L2 full-hit rate" in out
        assert "TLB hit rate" in out
        assert "AGP MB/s @ 30 Hz" in out

    def test_policy_option(self, trace_file, capsys):
        rc = simulate_main(
            [str(trace_file), "--l1-kb", "2", "--l2-kb", "64",
             "--policy", "lru"]
        )
        assert rc == 0

    def test_l1_wider_than_max_ways_exits_with_typed_error(
        self, trace_file, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            simulate_main([str(trace_file), "--ways", "128"])
        assert exc.value.code == 2
        assert "at most 64 ways" in capsys.readouterr().err


class TestSimulateCheckpointing:
    BASE = ["--l1-kb", "2", "--l2-kb", "64", "--fault-rate", "0.02"]

    def _table(self, out: str) -> str:
        # Strip the wall-clock row; everything else must be identical.
        return "\n".join(
            line for line in out.splitlines() if "simulation time" not in line
        )

    def test_resume_output_matches_uninterrupted_run(
        self, trace_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "run.ckpt"
        assert simulate_main([str(trace_file), *self.BASE]) == 0
        plain = self._table(capsys.readouterr().out)

        args = [str(trace_file), *self.BASE, "--checkpoint", str(ckpt),
                "--checkpoint-every", "1"]
        assert simulate_main(args) == 0
        assert self._table(capsys.readouterr().out) == plain
        assert ckpt.is_file()  # frame 2 of 3 is still on disk

        rc = simulate_main(
            [str(trace_file), *self.BASE, "--resume-from", str(ckpt)]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "resuming from" in captured.err
        assert self._table(captured.out) == plain

    def test_corrupt_checkpoint_restarts_from_scratch(
        self, trace_file, tmp_path, capsys
    ):
        from repro.errors import CorruptCheckpointWarning
        from repro.reliability.chaos import corrupt_file

        ckpt = tmp_path / "run.ckpt"
        args = [str(trace_file), *self.BASE, "--checkpoint", str(ckpt),
                "--checkpoint-every", "1"]
        assert simulate_main(args) == 0
        plain = self._table(capsys.readouterr().out)
        corrupt_file(ckpt, seed=1)
        with pytest.warns(CorruptCheckpointWarning):
            rc = simulate_main(
                [str(trace_file), *self.BASE, "--resume-from", str(ckpt)]
            )
        assert rc == 0
        captured = capsys.readouterr()
        assert "restarting from scratch" in captured.err
        assert self._table(captured.out) == plain

    def test_flag_validation(self, trace_file, tmp_path):
        with pytest.raises(SystemExit):
            simulate_main(
                [str(trace_file), "--resume-from", str(tmp_path / "absent.ckpt")]
            )
        with pytest.raises(SystemExit):
            simulate_main([str(trace_file), "--checkpoint-every", "2"])
        with pytest.raises(SystemExit):
            simulate_main(
                [str(trace_file), "--analytic", "--checkpoint",
                 str(tmp_path / "c.ckpt")]
            )


class TestSimulateVt:
    def test_vt_rows_reported(self, trace_file, capsys):
        rc = simulate_main(
            [
                str(trace_file), "--l1-kb", "2", "--vt",
                "--vt-pages", "64", "--vt-budget-us", "800",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "VT page fetches" in out
        assert "VT pages degraded" in out
        assert "VT stall-free rate" in out

    def test_faulty_vt_still_stall_free(self, trace_file, capsys):
        rc = simulate_main(
            [
                str(trace_file), "--l1-kb", "2", "--vt",
                "--vt-fault-rate", "0.5", "--vt-budget-us", "500",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines() if "VT stall-free rate" in l)
        assert row.rstrip().endswith("1.00")

    def test_vt_runs_deterministically(self, trace_file, capsys):
        args = [
            str(trace_file), "--l1-kb", "2", "--vt",
            "--vt-fault-rate", "0.3", "--vt-budget-us", "600",
        ]
        assert simulate_main(args) == 0
        first = capsys.readouterr().out
        assert simulate_main(args) == 0
        second = capsys.readouterr().out
        # Everything except the wall-clock row must match exactly.
        strip = lambda out: [
            line for line in out.splitlines() if "time" not in line
        ]
        assert strip(first) == strip(second)

    def test_vt_flags_require_vt_mode(self, trace_file):
        with pytest.raises(SystemExit):
            simulate_main([str(trace_file), "--vt-pages", "64"])
        with pytest.raises(SystemExit):
            simulate_main([str(trace_file), "--vt-budget-us", "100"])

    def test_vt_rejects_analytic_and_bad_rate(self, trace_file):
        with pytest.raises(SystemExit):
            simulate_main([str(trace_file), "--vt", "--analytic"])
        with pytest.raises(SystemExit):
            simulate_main(
                [str(trace_file), "--vt", "--vt-fault-rate", "1.5"]
            )


class TestTraceInfoJson:
    def test_json_summary(self, trace_file, capsys):
        import json

        assert trace_info_main([str(trace_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "city"
        assert payload["frames"] == 3
        assert payload["stats"]["depth_complexity"] > 0
        totals = payload["locality"]["class_totals"]
        assert set(totals) == {
            "run", "intra_object", "intra_frame",
            "inter_frame", "distant", "compulsory",
        }
        assert sum(totals.values()) > 0
        assert len(payload["locality"]["per_frame"]) == 3
        assert payload["frame_reuse_distances"]


class TestTraceInfoMrc:
    def test_table_output(self, trace_file, capsys):
        rc = trace_info_main(["mrc", str(trace_file), "--l1-sizes", "2,8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "miss rate" in out
        assert "2.0 KB" in out and "8.0 KB" in out

    def test_json_output(self, trace_file, capsys):
        import json

        rc = trace_info_main(
            ["mrc", str(trace_file), "--l1-sizes", "2,4", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        sizes = [p["size_bytes"] for p in payload["points"]]
        assert sizes == [2048, 4096]
        rates = [p["miss_rate"] for p in payload["points"]]
        assert rates[0] >= rates[1] >= 0

    def test_bad_sizes_rejected(self, trace_file):
        with pytest.raises(SystemExit):
            trace_info_main(["mrc", str(trace_file), "--l1-sizes", "two"])

    def test_bad_sample_rejected(self, trace_file):
        with pytest.raises(SystemExit):
            trace_info_main(["mrc", str(trace_file), "--sample", "0"])


class TestSimulateAnalytic:
    def test_l1_matches_transaction_sim(self, trace_file, capsys):
        assert simulate_main([str(trace_file), "--l1-kb", "2"]) == 0
        sim_out = capsys.readouterr().out
        assert simulate_main([str(trace_file), "--l1-kb", "2", "--analytic"]) == 0
        ana_out = capsys.readouterr().out

        def grab(out, label):
            for line in out.splitlines():
                if line.startswith(label):
                    return line.split()[-1]
            raise AssertionError(f"{label!r} not in output")

        assert grab(ana_out, "L1 hit rate (analytic)") == grab(sim_out, "L1 hit rate")
        assert grab(ana_out, "L1 misses (analytic)") == grab(sim_out, "L1 misses")

    def test_l2_reports_opt_bound(self, trace_file, capsys):
        rc = simulate_main(
            [str(trace_file), "--l1-kb", "2", "--l2-kb", "64", "--analytic"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "analytic LRU" in out
        assert "OPT bound" in out

    def test_belady_requires_analytic(self, trace_file):
        with pytest.raises(SystemExit):
            simulate_main(
                [str(trace_file), "--l1-kb", "2", "--l2-kb", "64",
                 "--policy", "belady"]
            )

    def test_analytic_rejects_tlb_and_faults(self, trace_file):
        with pytest.raises(SystemExit):
            simulate_main(
                [str(trace_file), "--l1-kb", "2", "--l2-kb", "64",
                 "--analytic", "--tlb", "4"]
            )
        with pytest.raises(SystemExit):
            simulate_main(
                [str(trace_file), "--l1-kb", "2", "--analytic",
                 "--fault-rate", "0.1"]
            )
