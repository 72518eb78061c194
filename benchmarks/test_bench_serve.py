"""Bench target for the overload-tolerant QoS serving layer.

Runs the ``serve`` experiment — five scenarios (clean, 2x overload, and
overload + faulty link + chaos, each with static and feedback weights)
replayed through the sweep supervisor — and asserts its acceptance
contracts: protected tenants never violate their SLO, queues stay inside
their declared bounds, circuit breakers both trip and recover, and the
fairness-feedback scheduler measurably beats static weights on
worst-tenant slowdown under overload.

Results land in ``BENCH_serve.json`` at the repo root so successive runs
leave a trajectory of the QoS margins.
"""

import json
from pathlib import Path

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_serve.json"


def test_serve_overload_qos(benchmark, run_bench_experiment):
    result = run_bench_experiment(benchmark, "serve")

    scenarios = result.data["scenarios"]
    assert set(scenarios) == {
        "static-clean",
        "feedback-clean",
        "static-overload",
        "feedback-overload",
        "feedback-faults",
    }

    queue_bounds = [t["queue_frames"] for t in result.data["tenants"]]
    for sid, m in scenarios.items():
        assert m["protected_violations"] == 0, sid
        for depth, bound in zip(m["max_queue_depth"], queue_bounds):
            assert depth <= bound, sid
        assert 0.0 < m["used_ratio"] <= 1.0, sid

    # Overload actually overloads: backpressure rejected work, the
    # shedder stepped in, and clean scenarios needed neither.
    over = scenarios["feedback-overload"]
    assert sum(sum(r.values()) for r in over["rejected"]) > 0
    assert over["shed_steps"] > 0
    clean = scenarios["feedback-clean"]
    assert sum(v for v in clean["violations"]) == 0

    # The faults scenario exercises the full breaker cycle.
    faults = scenarios["feedback-faults"]
    assert faults["breaker_trips"] >= 1
    assert faults["breaker_recoveries"] >= 1

    # The headline margin: feedback beats static weights on worst-tenant
    # slowdown under the same overload.
    margin = result.data["feedback_vs_static_margin"]
    assert margin > 0
    assert (
        scenarios["feedback-overload"]["worst_slowdown"]
        < scenarios["static-overload"]["worst_slowdown"]
    )

    ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "serve",
                "scale": result.scale_name,
                "epochs": result.data["epochs"],
                "epoch_us": result.data["epoch_us"],
                "feedback_vs_static_margin": margin,
                "scenarios": scenarios,
            },
            indent=2,
        )
        + "\n"
    )
