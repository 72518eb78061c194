"""Bench target for the multi-tenant serving experiment.

Runs the ``tenancy`` experiment — N in {2, 4, 8} tenant contexts
(alternating Terrain and Village) interleaved into one shared stream
across the four L2 partitioning policies — and asserts its contracts:
every sweep point reports per-tenant slowdowns and fairness, contention
does not shrink as tenants are added to the unpartitioned L2, and at two
tenants the best partitioned policy beats the free-for-all on
worst-tenant slowdown by at least 0.01 (the experiment itself asserts
the stat-breakdown and determinism contracts). Utility's margin over the
free-for-all is recorded, not asserted.

Results land in ``BENCH_tenancy.json`` at the repo root so successive
runs leave a trajectory of the contention and fairness numbers.
"""

import json
from pathlib import Path

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_tenancy.json"


def test_tenancy_contention_and_fairness(benchmark, run_bench_experiment):
    result = run_bench_experiment(benchmark, "tenancy")

    points = result.data["points"]
    counts = (2, 4, 8)
    policies = ("none", "static", "way", "utility")
    for n in counts:
        for policy in policies:
            point = points[f"n{n}_{policy}"]
            assert len(point["slowdowns"]) == n
            assert all(s > 0 for s in point["slowdowns"])
            assert 0.0 < point["jain"] <= 1.0
            assert point["worst_p99_us"] > 0

    # Contention on the shared free-for-all L2 must not shrink with N
    # (within a small tolerance for scheduling noise between mixes).
    worst_none = [max(points[f"n{n}_none"]["slowdowns"]) for n in counts]
    for prev, cur in zip(worst_none, worst_none[1:]):
        assert cur >= prev - 0.01, (
            f"unpartitioned worst-tenant slowdown fell as tenants were "
            f"added: {dict(zip(counts, worst_none))}"
        )

    worst_n2 = {p: max(points[f"n2_{p}"]["slowdowns"]) for p in policies}
    best_margin = worst_n2["none"] - min(
        worst_n2[p] for p in policies if p != "none"
    )
    assert best_margin >= 0.01, (
        f"no partitioned policy beat the free-for-all at N=2 by 0.01: "
        f"{worst_n2}"
    )

    ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "tenancy",
                "scale": result.scale_name,
                "l2": result.data["l2"],
                "points": points,
                "best_vs_none": result.data["best_vs_none"],
                "utility_vs_none_margins": result.data["utility_vs_none_margins"],
            },
            indent=2,
        )
        + "\n"
    )
