"""Compare two benchmark results metric by metric against the bounds.

Run from the repository root::

    python3 benchmarks/pipeline/compare.py A.json B.json

A is the parent (or first) result and B the change (or second); either may
be an acceptance set (``acceptance.py``) or a run document (``run.py
--out``). For each workload in both and each end-to-end metric of
``BENCHMARK.json``, B's median is compared with A's. A change past the
metric's bound in its worse direction is a regression. When either side's
spread, (q3 - q1) / median, is wider than the bound the metric is
"unresolved", unless every value of B beats every value of A. One row per
workload. Exits 1 on a regression or when B fails a larger fraction of
ops than A.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(metric: dict, a: dict, b: dict) -> tuple[float, str]:
    """``(relative change of the median, status)`` for one metric."""
    change = b["median"] / a["median"] - 1.0
    worse = -change if metric["better"] == "higher" else change
    bound = metric["bound"]

    def beats(x: float, y: float) -> bool:
        return x > y if metric["better"] == "higher" else x < y

    if max(a["spread"], b["spread"]) > bound:
        if all(beats(x, y) for x in b["values"] for y in a["values"]):
            return change, "better"
        return change, "unresolved"
    if worse > bound:
        return change, "WORSE"
    if worse < -bound:
        return change, "better"
    return change, "ok"


def compare(a: dict, b: dict, metrics: list[dict]) -> tuple[list[str], bool]:
    """Table lines and whether B regressed anywhere."""
    header = ["workload".ljust(14)] + [
        f"{m['name']} (±{m['bound']:.0%})".ljust(24) for m in metrics
    ] + ["failed_frac"]
    lines = ["  ".join(header)]
    regressed = False
    for name in [n for n in a["workloads"] if n in b["workloads"]]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        cells = [name.ljust(14)]
        for m in metrics:
            change, status = verdict(m, wa["summary"][m["name"]], wb["summary"][m["name"]])
            regressed |= status == "WORSE"
            cells.append(f"{change:+.1%} {status}".ljust(24))
        fa = wa["failed"] / wa["attempted"]
        fb = wb["failed"] / wb["attempted"]
        regressed |= fb > fa
        cells.append(f"{fa:.3g} -> {fb:.3g}{' WORSE' if fb > fa else ''}")
        lines.append("  ".join(cells))
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    a = json.loads(args.a.read_text())
    b = json.loads(args.b.read_text())
    lines, regressed = compare(a, b, metrics)
    print(f"A = {args.a}  B = {args.b}  (change of B's median vs A's)")
    print("\n".join(lines))
    print("regression" if regressed else "no regression")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
