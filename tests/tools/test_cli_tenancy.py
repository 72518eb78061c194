"""CLI surface for multi-tenancy: simulate flags and trace_info tenants."""

import argparse
import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.tenancy import merge_traces, tenant_gid_extents, tenant_of_refs
from repro.tools.render import main as render_main
from repro.tools.simulate import main as simulate_main, validate_tenant_flags
from repro.tools.trace_info import main as trace_info_main
from repro.trace.stream import open_trace


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tenancy_cli") / "city.stream"
    rc = render_main(
        [
            "city", str(path),
            "--width", "64", "--height", "48", "--frames", "2",
            "--detail", "0.2",
        ]
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def second_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("tenancy_cli") / "village.stream"
    rc = render_main(
        [
            "village", str(path),
            "--width", "64", "--height", "48", "--frames", "2",
            "--detail", "0.2",
        ]
    )
    assert rc == 0
    return path


class TestSimulateTenancy:
    def test_help_groups_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            simulate_main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "virtual texturing" in out
        assert "multi-tenant serving" in out

    def test_tenancy_run_reports_per_tenant_rows(self, trace_file, capsys):
        rc = simulate_main(
            [
                str(trace_file), "--l1-kb", "2", "--l2-kb", "64",
                "--tlb", "8", "--tenants", "2", "--tenant-policy", "way",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tenant quotas" in out
        assert "tenant 0" in out and "tenant 1" in out
        assert "fairness (Jain" in out
        assert "worst-tenant P99" in out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--tenant-schedule", "bursty"],  # needs --tenants >= 2
            ["--tenants", "2", "--vt"],
            ["--tenants", "2", "--tenant-policy", "static"],  # no --l2-kb
            ["--tenants", "2", "--tenant-weights", "1.0,oops"],
            ["--tenants", "3", "--tenant-policy", "way", "--tenant-ways", "2"],
        ],
    )
    def test_contradictory_combos_exit_with_usage_error(
        self, trace_file, capsys, extra
    ):
        with pytest.raises(SystemExit) as exc:
            simulate_main([str(trace_file), "--l1-kb", "2", *extra])
        assert exc.value.code == 2

    def test_validator_raises_typed_config_error(self):
        args = argparse.Namespace(
            tenants=2,
            tenant_policy="static",
            tenant_schedule="rr",
            tenant_weights=None,
            tenant_ways=8,
            tenant_seed=0,
            analytic=False,
            l2_kb=None,
        )
        with pytest.raises(ConfigError) as exc:
            validate_tenant_flags(args)
        assert "--tenant-policy" in str(exc.value)
        assert "--l2-kb" in str(exc.value)


class TestTraceInfoTenants:
    def test_table_lists_each_tenant(self, trace_file, second_trace, capsys):
        rc = trace_info_main(
            ["tenants", str(second_trace), str(trace_file)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "village" in out and "city" in out
        assert "footprint" in out

    def test_json_payload_parses(self, trace_file, capsys):
        rc = trace_info_main(
            ["tenants", str(trace_file), "--tenants", "3", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["tenants"]) == 3
        gid_ranges = [t["gid_range"] for t in payload["tenants"]]
        # Contiguous, non-overlapping tenant gid ranges.
        for (lo, hi), (lo2, _) in zip(gid_ranges, gid_ranges[1:]):
            assert lo < hi == lo2

    @pytest.mark.parametrize("clone", [False, True], ids=["pair", "clone3"])
    def test_matches_merged_stream_reference(
        self, trace_file, second_trace, clone, capsys
    ):
        if clone:
            paths, argv = [trace_file] * 3, [str(trace_file), "--tenants", "3"]
        else:
            paths = [second_trace, trace_file]
            argv = [str(p) for p in paths]
        assert trace_info_main(["tenants", *argv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["tenants"]

        # Reference: read every number off the merged stream itself.
        merged, bases = merge_traces([open_trace(p) for p in paths])
        space = merged.address_space
        extents = tenant_gid_extents(space, bases, 16)
        refs = np.concatenate([f.refs for f in merged.frames])
        weights = np.concatenate([f.weights for f in merged.frames])
        gids, _ = space.l2_addresses(refs, 16)
        starts = [start for start, _ in extents]
        footprints = np.bincount(
            np.searchsorted(starts, np.unique(gids), side="right") - 1,
            minlength=len(paths),
        )
        reads = np.bincount(
            tenant_of_refs(refs, bases), weights=weights, minlength=len(paths)
        )
        assert [t["footprint_blocks"] for t in payload] == footprints.tolist()
        assert [tuple(t["gid_range"]) for t in payload] == list(extents)
        assert [t["texel_reads"] for t in payload] == reads.astype(int).tolist()

    def test_clone_flag_requires_single_trace(
        self, trace_file, second_trace, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            trace_info_main(
                [
                    "tenants", str(trace_file), str(second_trace),
                    "--tenants", "2",
                ]
            )
        assert exc.value.code == 2
