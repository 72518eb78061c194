"""Experiment registry and command-line entry point.

``python -m repro.experiments <id> [<id> ...]`` regenerates any table or
figure; ``all`` runs everything. ``$REPRO_SCALE`` selects the scale preset
(small / bench / full / paper).

:func:`run_experiment_isolated` is the fault boundary the batch CLI runs
behind: one experiment blowing up is captured as an
:class:`~repro.errors.ExperimentError` (with its traceback) instead of
aborting the rest of the batch.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Callable

from repro.errors import ExperimentError

from repro.experiments import (
    exp_ablations,
    exp_locality,
    exp_performance,
    exp_fig3,
    exp_fig12,
    exp_fig4,
    exp_fig5,
    exp_fig6,
    exp_fig9,
    exp_fig10,
    exp_fig11,
    exp_mrc,
    exp_table1,
    exp_table2,
    exp_table3,
    exp_table4,
    exp_table5_6,
    exp_table7,
    exp_table8,
    exp_tenancy,
    exp_vt,
)
from repro.experiments.config import Scale
from repro.experiments.reporting import ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment", "run_experiment_isolated", "ExperimentOutcome"]

#: Registry: experiment id -> (title, run function).
EXPERIMENTS: dict[str, tuple[str, Callable[[Scale | None], ExperimentResult]]] = {
    "fig3": ("Expected inter-frame working set (analytic)", exp_fig3.run),
    "table1": ("Workload statistics and expected W", exp_table1.run),
    "fig4": ("Minimum memory: push vs L2", exp_fig4.run),
    "fig5": ("Total vs new L2 memory", exp_fig5.run),
    "fig6": ("Minimum L1 download bandwidth", exp_fig6.run),
    "fig9": ("L1 miss rate by cache size", exp_fig9.run),
    "table2": ("Average L1 hit rates", exp_table2.run),
    "fig10": ("Download bandwidth with/without L2", exp_fig10.run),
    "table3": ("Average AGP bandwidth (MB/frame)", exp_table3.run),
    "table4": ("L2 structure sizes (analytic)", exp_table4.run),
    "table5_6": ("L1 and conditional L2 hit rates", exp_table5_6.run),
    "table7": ("Fractional advantage f", exp_table7.run),
    "fig11": ("TLB hit rates over frames", exp_fig11.run),
    "fig12": ("Animation snapshots (PPM)", exp_fig12.run),
    "table8": ("Average TLB hit rates", exp_table8.run),
    "locality": ("Locality-class decomposition (§4)", exp_locality.run),
    "mrc": ("Analytic miss-ratio curves vs simulation", exp_mrc.run),
    "perf": ("Estimated frame rates (timing model)", exp_performance.run),
    "abl-zfirst": ("Ablation: z before texture", exp_ablations.run_zfirst),
    "abl-replacement": ("Ablation: L2 replacement policies", exp_ablations.run_replacement),
    "abl-raster-order": ("Ablation: raster order", exp_ablations.run_raster_order),
    "abl-l2-assoc": ("Ablation: L2 associativity", exp_ablations.run_l2_associativity),
    "abl-tlb": ("Ablation: TLB replacement policy", exp_ablations.run_tlb_policy),
    "abl-multitexture": ("Ablation: multi-texturing", exp_ablations.run_multitexture),
    "abl-push-budget": ("Ablation: budgeted push management", exp_ablations.run_push_budget),
    "abl-line-size": ("Ablation: L1 line size", exp_ablations.run_line_size),
    "abl-l1-assoc": ("Ablation: L1 associativity", exp_ablations.run_l1_associativity),
    "abl-streaming": ("Ablation: texture streaming (§5.2)", exp_ablations.run_streaming),
    "abl-faults": ("Ablation: AGP transfer faults + retry/backoff", exp_ablations.run_faults),
    "abl-future": ("Ablation: future workload", exp_ablations.run_future_workload),
    "vt": ("Fault-tolerant virtual texturing (terrain)", exp_vt.run_vt),
    "tenancy": ("Multi-tenant serving contention", exp_tenancy.run_tenancy),
}


def run_experiment(experiment_id: str, scale: Scale | None = None) -> ExperimentResult:
    """Run one experiment by its paper id."""
    try:
        _, fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    return fn(scale)


@dataclass
class ExperimentOutcome:
    """One experiment's result *or* captured failure, plus wall time."""

    experiment_id: str
    elapsed_s: float
    result: ExperimentResult | None = None
    error: ExperimentError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_experiment_isolated(
    experiment_id: str, scale: Scale | None = None
) -> ExperimentOutcome:
    """Run one experiment, capturing any failure instead of raising.

    An unknown experiment id still raises ``ValueError`` — that is a usage
    error the caller should validate up front, not a runtime fault to
    journal. ``KeyboardInterrupt``/``SystemExit`` propagate.
    """
    if experiment_id not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(EXPERIMENTS)}"
        )
    start = time.time()
    try:
        result = run_experiment(experiment_id, scale)
    except Exception as exc:
        return ExperimentOutcome(
            experiment_id=experiment_id,
            elapsed_s=time.time() - start,
            error=ExperimentError(experiment_id, exc, traceback.format_exc()),
        )
    return ExperimentOutcome(
        experiment_id=experiment_id, elapsed_s=time.time() - start, result=result
    )
