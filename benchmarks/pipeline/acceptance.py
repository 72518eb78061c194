"""An acceptance set: the benchmark run once per seed on every workload.

Run from the repository root::

    python3 benchmarks/pipeline/acceptance.py --out SET.json [--seeds 1-10]

Each run is the command of ``BENCHMARK.json`` with ``--workload W --seed
N --seconds <run_seconds> --trace 0``, a fresh invocation per run; rounds
interleave the workloads. After the seeds, one ``--trace 1`` run per
workload at its default seed gives the per-layer breakdown. The set keeps
every run's end-to-end values and raw per-rep timings and, per workload
and metric, the median, quartiles and spread over the runs.
``compare.py`` compares two sets.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCHMARK, HERE, ROOT, WORKLOADS, load_metrics, provenance, summarize

#: Per-rep fields kept in a set (the rest stays in each run's own document).
REP_FIELDS = (
    "kind", "index", "setup_s", "pipeline_s", "trace_fps", "sim_fps",
    "peak_rss_mb", "wall_s", "attempted", "failed",
)


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,9"`` into a list of seeds."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def invoke(
    command: list[str], workload: str, seed: int, seconds: int, trace: int
) -> tuple[dict, dict]:
    """One benchmark run: its result line and its result document."""
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".scratch-") as tmp:
        out = Path(tmp) / "run.json"
        proc = subprocess.run(
            [
                *command,
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
                "--out", str(out),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        if not out.exists():
            sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(
            out.read_text()
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    end_to_end, _ = load_metrics()
    names = [w["name"] for w in spec["workloads"]]
    load_before = os.getloadavg()
    sets: dict[str, dict] = {n: {"runs": [], "attempted": 0, "failed": 0} for n in names}
    for seed in args.seeds:
        for name in names:
            line, doc = invoke(spec["command"], name, seed, spec["run_seconds"], 0)
            w = doc["workloads"][name]
            sets[name]["runs"].append(
                {
                    "seed": seed,
                    "correct": line["correct"],
                    "metrics": {k: v["value"] for k, v in line["metrics"].items()},
                    "digest": w["digest"],
                    "loadavg": [
                        doc["provenance"]["loadavg_before"][0],
                        doc["provenance"]["loadavg_after"][0],
                    ],
                    "reps": [{k: r[k] for k in REP_FIELDS} for r in w["reps"]],
                }
            )
            sets[name]["attempted"] += line["attempted"]
            sets[name]["failed"] += line["failed"]
            print(f"{name} seed {seed}: {json.dumps(line['metrics'])}", flush=True)
    for name in names:
        seed = WORKLOADS[name].default_seed
        line, _ = invoke(spec["command"], name, seed, spec["run_seconds"], 1)
        sets[name]["layers"] = {k: v["value"] for k, v in line["metrics"].items()}
        sets[name]["layers_seed"] = seed
        sets[name]["attempted"] += line["attempted"]
        sets[name]["failed"] += line["failed"]
        runs = sets[name]["runs"]
        sets[name]["summary"] = {
            m["name"]: summarize([r["metrics"][m["name"]] for r in runs])
            for m in end_to_end
        }
        sets[name]["failed_frac"] = sets[name]["failed"] / sets[name]["attempted"]

    prov = provenance(
        load_before,
        os.getloadavg(),
        {"seconds": spec["run_seconds"], "seeds": args.seeds},
    )
    doc = {"provenance": prov, "workloads": sets}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name in names:
        print(
            name,
            " ".join(
                f"{m}={s['median']:.4g}(spread {s['spread']:.3f})"
                for m, s in sets[name]["summary"].items()
            ),
        )
    return 0 if all(s["failed"] == 0 for s in sets.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
