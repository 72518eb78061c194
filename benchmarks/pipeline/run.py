"""End-to-end pipeline benchmark: render -> .stream -> simulate.

Run from the repository root::

    python3 benchmarks/pipeline/run.py [--workload NAME]... [--seed N]
        [--reps N | --seconds S] [--trace 0|1] [--out FILE] [--smoke] [--pin]

Every rep is a fresh single-threaded process (``rep.py``), one at a time.
Rounds interleave the workloads (A, B, C, A, B, C, ...): round 0 is a
discarded smoke-sized warmup, then come the timed rounds (``--reps`` of
them, or as many as fit in ``--seconds``, at least three), then with
``--trace 1`` one traced round whose spans give the per-layer breakdown.
End-to-end metrics are medians over the timed reps. Every rep's outputs
are checked: an op (a frame rendered, or a frame simulated under one
config) fails on a CRC, count-invariant or digest mismatch. The digest
must equal the value pinned in ``digests.json`` for that workload and
seed, and is compared across reps for any seed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. With several workloads the metric names are prefixed with
``<workload>:``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    # Never fall back to an installed copy: the benchmark measures this tree.
    sys.exit(f"error: {SRC / 'repro'} not found; run from the repository root")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402  (imports repro from src/)

BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"

#: Timed reps a ``--seconds`` run makes even when the budget is spent.
MIN_TIMED_REPS = 3

#: A rep that runs longer than this is killed and fails the run.
REP_TIMEOUT_S = 150

NOTES = (
    "caches start cold at frame 0, as in the paper; no warm-up frames",
    "outputs are checked against the simulator's own pinned digests, "
    "not against the paper or hardware",
)

# Single-threaded reps that neither read nor write the trace and
# simulation caches, the heartbeat journal or the chaos harness.
_UNSET = ("REPRO_JOBS", "REPRO_RENDER_WORKERS", "REPRO_CHAOS", "REPRO_SCALE")
_CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_TRACE_CACHE": "off",
    "REPRO_SIM_CACHE": "off",
    "REPRO_HEARTBEAT": "off",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": str(SRC),
}


class BenchError(RuntimeError):
    """A rep could not run; the benchmark prints no result."""


def load_metrics() -> tuple[list[dict], list[dict]]:
    """``(end_to_end, per_layer)`` metric definitions from BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text())
    return spec["end_to_end"], spec["per_layer"]


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``), min, max, n, spread.

    The spread is the distance between the quartiles as a share of the
    median; ``values`` keeps the samples in measurement order.
    """
    ordered = sorted(values)
    med = statistics.median(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else [med] * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
        "spread": (q3 - q1) / med if med else 0.0,
        "values": list(values),
    }


def run_rep(
    name: str,
    seed: int,
    index: int,
    traced: bool,
    scratch: Path,
    smoke: bool,
    spans: Path | None = None,
) -> dict:
    """Run one rep in a fresh process and derive its end-to-end metrics."""
    stream = scratch / f"{name}-{index}.stream"
    cmd = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", name,
        "--seed", str(seed),
        "--rep", str(index),
        "--stream", str(stream),
        "--trace", str(int(traced)),
    ]
    if smoke:
        cmd.append("--smoke")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {k: v for k, v in os.environ.items() if k not in _UNSET}
    env.update(_CHILD_ENV)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} rep {index} ran over {REP_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(stream, ignore_errors=True)
    wall_s = time.monotonic() - t_spawn
    if proc.returncode != 0:
        raise BenchError(
            f"{name} rep {index} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    n = rec["n_frames"]
    rec.update(
        index=index,
        wall_s=wall_s,
        setup_s=rec["t_first"] - t_spawn,
        pipeline_s=rec["t_done"] - rec["t_first"],
        trace_fps=n / (rec["t_written"] - rec["t_first"]),
        sim_fps=n * len(rec["labels"]) / (rec["t_done"] - rec["t_written"]),
    )
    return rec


def account(rec: dict, reference: dict) -> tuple[int, int]:
    """``(attempted, failed)`` ops of one rep against reference digests.

    A digest mismatch fails every frame of its part (the render, or one
    config); otherwise the rep's own CRC and invariant failures count.
    """
    n = rec["n_frames"]
    digest = rec["digest"]
    failed = n if digest["trace"] != reference.get("trace") else rec["render_failed"]
    for label in rec["labels"]:
        if digest[label] != reference.get(label):
            failed += n
        else:
            failed += rec["sim_failed"][label]
    return n * (1 + len(rec["labels"])), failed


class WorkloadRun:
    """Every rep of one workload in one benchmark run."""

    def __init__(self, name: str, seed: int, pinned: dict | None):
        self.name = name
        self.seed = seed
        self.pinned = pinned
        self.reference = pinned
        self.reps: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def add(self, rec: dict, kind: str) -> None:
        if self.reference is None:
            self.reference = rec["digest"]
        attempted, failed = account(rec, self.reference)
        rec.update(kind=kind, attempted=attempted, failed=failed)
        self.attempted += attempted
        self.failed += failed
        self.reps.append(rec)

    def timed(self) -> list[dict]:
        return [r for r in self.reps if r["kind"] == "timed"]

    def traced(self) -> dict | None:
        return next((r for r in self.reps if r["kind"] == "traced"), None)

    def summary(self, end_to_end: list[dict]) -> dict:
        return {
            m["name"]: summarize([r[m["name"]] for r in self.timed()])
            for m in end_to_end
        }

    def layers(self) -> dict | None:
        """The traced rep's per-layer metrics plus the tracing overhead."""
        traced = self.traced()
        if traced is None:
            return None
        untraced = statistics.median(r["pipeline_s"] for r in self.timed())
        layers = dict(traced["layers"])
        layers["trace_overhead_frac"] = traced["pipeline_s"] / untraced - 1.0
        return layers


def measure(args, names: list[str], scratch: Path) -> dict[str, WorkloadRun]:
    """Warmup round, timed rounds, then the optional traced round."""
    pinned = {} if args.smoke else load_digests()
    runs = {}
    for name in names:
        seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
        runs[name] = WorkloadRun(name, seed, pinned.get(name, {}).get(str(seed)))

    def round_(index: int, kind: str) -> float:
        start = time.monotonic()
        for name in names:
            run = runs[name]
            spans = None
            if kind == "traced" and args.out is not None:
                spans = args.out.with_name(f"{args.out.stem}.{name}.spans.jsonl")
            rec = run_rep(
                name, run.seed, index, kind == "traced", scratch, args.smoke, spans
            )
            run.add(rec, kind)
        return time.monotonic() - start

    # The warmup compiles bytecode and pages in the interpreter and its
    # libraries; every rep is a fresh process, so a smoke-sized rep warms
    # all a full one would, and its result is discarded.
    start = time.monotonic()
    for name in names:
        run_rep(name, runs[name].seed, 0, False, scratch, True)
    longest = 0.0
    rounds = 0
    while True:
        if args.seconds is None:
            if rounds >= args.reps:
                break
        elif rounds >= MIN_TIMED_REPS and (
            time.monotonic() - start + longest > args.seconds
        ):
            break
        rounds += 1
        longest = max(longest, round_(rounds, "timed"))
    if args.trace:
        round_(rounds + 1, "traced")
    return runs


def _git(*argv: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), *argv], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(load_before, load_after, settings: dict) -> dict:
    """Where, on what and how a result was measured.

    ``dirty`` means uncommitted changes under ``src/``; git fields are
    None outside a git checkout.
    """
    status = _git("status", "--porcelain", "--", "src")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "argv": sys.argv[1:],
        **settings,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(runs: dict[str, WorkloadRun], prov: dict, trace: bool) -> dict:
    """Print every metric by name with its unit; return the result document."""
    end_to_end, per_layer = load_metrics()
    print(
        f"pipeline benchmark  sha {prov['git_sha'] or 'unknown'}"
        f"{' (src dirty)' if prov['dirty'] else ''}  nproc {prov['nproc']}"
        f"  python {prov['python']}  numpy {prov['numpy']}"
        f"  load {prov['loadavg_before'][0]:.2f} -> {prov['loadavg_after'][0]:.2f}"
    )
    for note in NOTES:
        print(f"note: {note}")
    doc = {"provenance": prov, "notes": list(NOTES), "workloads": {}}
    for name, run in runs.items():
        summary = run.summary(end_to_end)
        layers = run.layers() if trace else None
        failed_frac = run.failed / run.attempted
        kinds = [r["kind"] for r in run.reps]
        print(
            f"\n{name}  seed {run.seed}  timed reps {kinds.count('timed')}"
            f" (+1 smoke warmup, +{kinds.count('traced')} traced)"
            f"  digest {'pinned' if run.pinned else 'unpinned, equal across reps'}"
        )
        for m in end_to_end:
            s = summary[m["name"]]
            print(
                f"  {m['name']:<14} {_fmt(s['median']):>12} {m['unit']:<8}"
                f" q1 {_fmt(s['q1'])}  q3 {_fmt(s['q3'])}"
                f"  min {_fmt(s['min'])}  max {_fmt(s['max'])}  n {s['n']}"
            )
        print(
            f"  {'failed_frac':<14} {_fmt(failed_frac):>12} {'frac':<8}"
            f" {run.failed} of {run.attempted} ops"
        )
        if layers is not None:
            print("  traced layers (self times):")
            for m in per_layer:
                print(f"    {m['name']:<36} {_fmt(layers[m['name']]):>12} {m['unit']}")
        doc["workloads"][name] = {
            "seed": run.seed,
            "attempted": run.attempted,
            "failed": run.failed,
            "failed_frac": failed_frac,
            "digest": run.reference,
            "digest_pinned": bool(run.pinned),
            "summary": summary,
            "layers": layers,
            "reps": run.reps,
        }
    return doc


def result_line(doc: dict, trace: bool) -> dict:
    """The last output line: correctness plus the BENCHMARK.json metrics."""
    end_to_end, per_layer = load_metrics()
    multi = len(doc["workloads"]) > 1
    attempted = failed = 0
    metrics = {}
    for name, w in doc["workloads"].items():
        attempted += w["attempted"]
        failed += w["failed"]
        prefix = f"{name}:" if multi else ""
        for m in per_layer if trace else end_to_end:
            value = w["layers"][m["name"]] if trace else w["summary"][m["name"]]["median"]
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def pin(runs: dict[str, WorkloadRun]) -> None:
    """Record each workload's observed digest for its seed."""
    digests = load_digests()
    for name, run in runs.items():
        digests.setdefault(name, {})[str(run.seed)] = run.reference
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end pipeline benchmark (render -> .stream -> simulate)."
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--seed", type=int, help="scene seed (default: each builder's own)"
    )
    parser.add_argument("--reps", type=int, default=7, help="timed rounds")
    parser.add_argument(
        "--seconds", type=float, help="time budget of a run; overrides --reps"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", type=Path, help="write the result document here")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny frames; for tests"
    )
    parser.add_argument(
        "--pin", action="store_true", help="record unpinned digests in digests.json"
    )
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if args.pin and args.smoke:
        parser.error("smoke digests are not pinned")
    names = args.workload or list(WORKLOADS)

    load_before = os.getloadavg()
    scratch = Path(tempfile.mkdtemp(dir=HERE, prefix=".scratch-"))
    try:
        runs = measure(args, names, scratch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    prov = provenance(
        load_before,
        os.getloadavg(),
        {
            "seconds": args.seconds,
            "reps": None if args.seconds is not None else args.reps,
            "trace": args.trace,
            "smoke": args.smoke,
        },
    )
    doc = report(runs, prov, bool(args.trace))
    line = result_line(doc, bool(args.trace))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.pin:
        if line["correct"]:
            pin(runs)
        else:
            print("error: not pinning digests of a failed run", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
