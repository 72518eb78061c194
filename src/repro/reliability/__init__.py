"""Reliability layer: integrity, fault injection, and resilient batch runs.

Three concerns, one package:

* **Safe persistence** — :mod:`~repro.reliability.atomic` (tmp-file +
  ``os.replace`` writers) and :mod:`~repro.reliability.integrity`
  (per-array CRC32s and verification reports) protect the traces the
  whole methodology replays.
* **Faulty transfers** — :mod:`~repro.reliability.faults` (seeded,
  deterministic drop/corrupt/latency-spike model per 64-byte block) and
  :mod:`~repro.reliability.transfer` (retry/backoff policy with
  stale-block degraded mode) bolt onto the hierarchy's download path.
* **Resilient batches** — :mod:`~repro.reliability.runjournal` records
  per-experiment outcomes so ``python -m repro.experiments all`` survives
  individual failures and ``--resume`` skips completed work;
  :mod:`~repro.reliability.heartbeat` journals the sweep supervisor's
  liveness events beside it.
* **Crash-safe simulation** — :mod:`~repro.reliability.checkpoint`
  persists frame-granular hierarchy state so interrupted runs resume
  bit-identically, and :mod:`~repro.reliability.chaos` injects seeded
  worker kills, stalls, and artifact corruption to prove the healing
  paths work.
* **Supervised parallelism** — :mod:`~repro.reliability.supervisor` is
  the generic self-healing worker pool (watchdogs, dead-worker
  replacement, requeue with backoff, serial degradation) behind both
  sweep simulation (:mod:`repro.experiments.parallel`) and parallel
  frame rendering (:mod:`repro.raster.parallel`).
"""

from repro.reliability.atomic import (
    atomic_savez_compressed,
    atomic_savez_deterministic,
    atomic_write,
    atomic_write_text,
)
from repro.reliability.chaos import ChaosInjector, ChaosPolicy, corrupt_file
from repro.reliability.checkpoint import (
    Checkpoint,
    load_checkpoint,
    read_checkpoint,
    run_key,
    write_checkpoint,
)
from repro.reliability.heartbeat import HeartbeatJournal, default_heartbeat_path
from repro.reliability.faults import FaultModel
from repro.reliability.integrity import (
    ArrayCheck,
    VerifyReport,
    array_checksum,
)
from repro.reliability.runjournal import (
    ExperimentRecord,
    RunJournal,
    default_journal_path,
)
from repro.reliability.supervisor import (
    SupervisorConfig,
    TaskRunner,
    default_jobs,
    default_task_timeout,
    parse_jobs,
    supervise_tasks,
)
from repro.reliability.transfer import (
    AgpTransferLink,
    FrameTransferStats,
    TransferPolicy,
)

__all__ = [
    "atomic_write",
    "atomic_write_text",
    "atomic_savez_compressed",
    "atomic_savez_deterministic",
    "Checkpoint",
    "run_key",
    "write_checkpoint",
    "read_checkpoint",
    "load_checkpoint",
    "ChaosPolicy",
    "ChaosInjector",
    "corrupt_file",
    "HeartbeatJournal",
    "default_heartbeat_path",
    "array_checksum",
    "ArrayCheck",
    "VerifyReport",
    "FaultModel",
    "SupervisorConfig",
    "TaskRunner",
    "default_jobs",
    "default_task_timeout",
    "parse_jobs",
    "supervise_tasks",
    "TransferPolicy",
    "FrameTransferStats",
    "AgpTransferLink",
    "ExperimentRecord",
    "RunJournal",
    "default_journal_path",
]
