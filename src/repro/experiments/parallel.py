"""Self-healing process-parallel simulation of (trace, config) sweep points.

The experiment layer's sweeps (Fig 9/10, Tables 3 and 5-7, the ablations)
are embarrassingly parallel: every (trace, HierarchyConfig) point is an
independent, deterministic simulation. :func:`simulate_many` resolves a
list of points by first consulting the persistent store
(:mod:`repro.experiments.simstore`), then fanning the remainder across the
generic supervised worker pool (:mod:`repro.reliability.supervisor`) and
persisting what the workers compute. Results are identical to serial
simulation — the pool only changes wall-clock time.

The failure posture — watchdog deadlines, dead-worker replacement,
requeue with backoff, heartbeat journal, serial degradation — lives in
:func:`repro.reliability.supervisor.supervise_tasks`; this module only
supplies the sweep-specific task body (:class:`_SweepRunner`): simulate a
(trace, config) point and persist it to the store *before* reporting, so
points completed by a sweep that later crashes survive and a restarted
sweep re-runs only the missing remainder.

Job count comes from ``--jobs`` on the experiments CLI via ``$REPRO_JOBS``
(default 1, i.e. serial in-process, no supervisor). The watchdog deadline
comes from ``--task-timeout`` via ``$REPRO_TASK_TIMEOUT``. KeyboardInterrupt
tears the pool down completely — no orphan workers keep running (or keep
writing to ``.sim_cache/``) after ^C.
"""

from __future__ import annotations

from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache, TraceRunResult
from repro.experiments import simstore
from repro.reliability.supervisor import (  # noqa: F401  (re-exported API)
    SupervisorConfig,
    TaskRunner,
    _mp_context,
    _WorkerPool,
    default_jobs,
    default_task_timeout,
    supervise_tasks,
)
from repro.trace.trace import Trace

__all__ = [
    "default_jobs",
    "default_task_timeout",
    "SupervisorConfig",
    "simulate_many",
]


def _simulate_point(trace: Trace, config: HierarchyConfig) -> TraceRunResult:
    sim = MultiLevelTextureCache(config, trace.address_space)
    return sim.run_trace(trace)


def _task_key(trace: Trace, config: HierarchyConfig) -> str:
    # The store digest is stable across processes and scheduling orders,
    # which is exactly what seeded chaos decisions need.
    return simstore._entry_digest(trace, config)


class _SweepRunner(TaskRunner):
    """Task body for sweep points: payload = (trace_index, config).

    Each distinct trace object ships to workers once (inside the runner);
    payloads reference it by index, so a sweep over one trace and many
    configs doesn't serialize the trace per task.
    """

    def __init__(self, traces: list[Trace]):
        self.traces = traces

    def task_key(self, payload) -> str:
        trace_idx, config = payload
        return _task_key(self.traces[trace_idx], config)

    def run(self, payload) -> TraceRunResult:
        trace_idx, config = payload
        return _simulate_point(self.traces[trace_idx], config)

    def persist(self, payload, result: TraceRunResult) -> None:
        trace_idx, config = payload
        # Dedupe makes this a no-op when another save already landed.
        simstore.save(self.traces[trace_idx], config, result)


def simulate_many(
    points: list[tuple[Trace, HierarchyConfig]],
    jobs: int | None = None,
    supervisor: SupervisorConfig | None = None,
) -> list[TraceRunResult]:
    """Simulate every (trace, config) point, store-cached and supervised.

    Returns results in the order of ``points``. Points already in the
    persistent store are served from disk; the rest are simulated (across
    ``jobs`` supervised worker processes when ``jobs > 1``) and persisted.
    Because workers persist before reporting, a crashed or interrupted
    sweep leaves its completed points in the store, and calling
    :func:`simulate_many` again re-runs only the missing remainder.
    """
    if jobs is None:
        jobs = default_jobs()
    results: list[TraceRunResult | None] = [None] * len(points)
    todo: list[int] = []
    for i, (trace, config) in enumerate(points):
        cached = simstore.load(trace, config)
        if cached is not None:
            results[i] = cached
        else:
            todo.append(i)

    if todo:
        if jobs > 1 and len(todo) > 1:
            # Ship each distinct trace object to workers once.
            traces: list[Trace] = []
            trace_index: dict[int, int] = {}
            for i in todo:
                trace = points[i][0]
                if id(trace) not in trace_index:
                    trace_index[id(trace)] = len(traces)
                    traces.append(trace)
            supervised = supervise_tasks(
                [(i, (trace_index[id(points[i][0])], points[i][1])) for i in todo],
                _SweepRunner(traces),
                jobs,
                supervisor or SupervisorConfig(),
            )
            for i in todo:
                results[i] = supervised[i]
        else:
            # Stably grouped by (trace, L1), in first-appearance order, so
            # each group's later points replay its first point's L1 record
            # (DESIGN §8.3); results still land in ``points`` order.
            groups: dict[tuple, list[int]] = {}
            for i in todo:
                trace, config = points[i]
                groups.setdefault((id(trace), config.l1), []).append(i)
            for i in (i for group in groups.values() for i in group):
                result = _simulate_point(*points[i])
                simstore.save(points[i][0], points[i][1], result)
                results[i] = result
    return results  # type: ignore[return-value]
