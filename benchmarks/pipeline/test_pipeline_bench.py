"""Tests of the pipeline benchmark itself.

Run explicitly (the tier-1 suite collects only ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/pipeline/test_pipeline_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import rep
import run
from spans import Span, Tracer, self_times
from workloads import WORKLOADS, smoke

from repro.raster import batch, pipeline as raster_pipeline
from repro.texture import sampler
from repro.trace import events

END_TO_END, PER_LAYER = run.load_metrics()


def _bench(*argv: str, out=None) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--smoke", "--reps", "1", *argv]
    if out is not None:
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    printed, result = _bench("--trace", "1", out=out)
    return printed, result, json.loads(out.read_text())


def test_workloads_match_benchmark_json():
    spec = json.loads(run.BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["benchmarks/pipeline"]


def test_smoke_prints_every_metric_with_its_unit(traced_smoke):
    printed, result, _ = traced_smoke
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for m in END_TO_END + PER_LAYER:
        assert any(
            line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
            for line in printed
        ), m["name"]
    for name in WORKLOADS:
        for m in PER_LAYER:
            assert result["metrics"][f"{name}:{m['name']}"]["unit"] == m["unit"]


def test_untraced_result_line_holds_exactly_the_end_to_end_metrics():
    _, result = _bench("--workload", "terrain-vt", "--trace", "0")
    assert set(result["metrics"]) == {m["name"] for m in END_TO_END}
    for m in END_TO_END:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_untraced_reps_run_with_no_wrappers_installed(traced_smoke):
    _, _, doc = traced_smoke
    for w in doc["workloads"].values():
        for r in w["reps"]:
            if r["kind"] == "traced":
                assert "repro.raster.pipeline.rasterize_triangles" in r["wrappers"]
            else:
                assert r["wrappers"] == []


def test_traced_spans_cover_the_pipeline(traced_smoke):
    _, _, doc = traced_smoke
    for w in doc["workloads"].values():
        assert w["layers"]["pipeline.unattributed_s.share"] <= 0.05


def test_tracer_uninstall_restores_every_wrapped_call(tmp_path):
    tracer = Tracer("village-sweep", 0)
    try:
        out = rep.run_pipeline(
            smoke(WORKLOADS["village-sweep"]), 7, tmp_path / "t.stream", tracer
        )
    finally:
        tracer.uninstall()
    assert raster_pipeline.rasterize_triangles is batch.rasterize_triangles
    assert raster_pipeline.footprint_tiles_grid is sampler.footprint_tiles_grid
    assert raster_pipeline.collapse_runs is events.collapse_runs
    names = {s.name for s in tracer.spans}
    assert {"Renderer.render_frame", "L2TextureCache.access_blocks"} <= names
    assert all(s.end_ns >= s.start_ns for s in tracer.spans)
    assert len(out.results) == 3


def test_perturbed_stat_fails_the_digest_and_counts_failed_ops(tmp_path):
    wl = smoke(WORKLOADS["village-sweep"])
    out = rep.run_pipeline(wl, 7, tmp_path / "t.stream")
    clean = rep.check(out)
    assert run.account(clean, clean["digest"]) == (wl.frames * 4, 0)

    # Evictions are covered by no invariant: only the digest catches this.
    out.results[1].frames[0].l2.evictions += 1
    perturbed = rep.check(out)
    assert perturbed["sim_failed"] == {label: 0 for label in out.labels}
    assert perturbed["digest"]["l2-4MB"] != clean["digest"]["l2-4MB"]
    assert run.account(perturbed, clean["digest"]) == (wl.frames * 4, wl.frames)

    # A broken invariant fails its frame even without a reference change.
    out.results[0].frames[1].l2.full_hits += 1
    broken = rep.check(out)
    assert broken["sim_failed"]["l2-2MB"] == 1


def test_self_time_subtracts_the_union_of_child_intervals():
    req = ("w", 0, 0, None)
    spans = [
        Span(0, "root", 0, 100, None, req),
        Span(1, "a", 10, 40, 0, req),
        Span(2, "b", 30, 60, 0, req),  # overlaps a: the union is 10..60
        Span(3, "a.child", 15, 25, 1, req),
        Span(4, "c", 90, 120, 0, req),  # clipped to the root's end
    ]
    selfs = self_times(spans)
    assert selfs == {0: 100 - 50 - 10, 1: 30 - 10, 2: 30, 3: 10, 4: 30}


def test_summarize_uses_statistics_quartiles():
    s = run.summarize([4.0, 1.0, 3.0, 2.0])
    assert (s["median"], s["min"], s["max"], s["n"]) == (2.5, 1.0, 4.0, 4)
    assert s["q1"] == pytest.approx(1.25) and s["q3"] == pytest.approx(3.75)
    assert s["spread"] == pytest.approx(1.0)
    assert s["values"] == [4.0, 1.0, 3.0, 2.0]
