"""Shared exception taxonomy.

Every failure the reproduction treats as a first-class state derives from
:class:`ReproError`, so callers can catch the package's own failures
without swallowing programming errors. The taxonomy mirrors the three
reliability layers:

* trace persistence — :class:`TraceCorruptionError` (damaged trace) and
  :class:`TraceFormatError` (not a trace directory, or unsupported version);
* simulated AGP transfers — :class:`TransferError` (a block transfer
  exhausted its retry budget under a strict policy);
* the experiment runner — :class:`ExperimentError` (one experiment failed;
  carries the id and the captured traceback so a batch can continue);
* the sweep supervisor — :class:`WorkerCrashError` (a pool worker died and
  the point's retry budget ran out) and :class:`WorkerTimeoutError` (a
  point exceeded its watchdog deadline on every attempt);
* checkpointed simulation — :class:`CheckpointCorruptError` (a checkpoint
  file is damaged, truncated, or bound to a different run);
* environment configuration — :class:`ConfigError` (a ``$REPRO_*``
  variable holds an unparsable or out-of-range value; raised up front with
  the offending value instead of a raw ``ValueError`` deep in the pool);
* the QoS serving layer — :class:`ServeError` and its concrete shapes
  :class:`AdmissionRejectedError` (a tenant's frame request was refused —
  queue full, SLO projection over budget, or an open circuit breaker) and
  :class:`CircuitOpenError` (work was routed to a tenant whose breaker is
  open). The admission controller normally *returns* these as typed
  decision payloads rather than raising; strict callers raise them.

:class:`CorruptTraceWarning` is emitted when a corrupted disk-cache entry
is quarantined and transparently re-rendered instead of crashing the run;
:class:`CorruptSimCacheWarning` and :class:`CorruptCheckpointWarning` are
the same posture for simulation-store entries and checkpoints.
"""

from __future__ import annotations

import os

__all__ = [
    "ReproError",
    "TraceCorruptionError",
    "TraceFormatError",
    "TransferError",
    "ExperimentError",
    "SweepError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "CheckpointCorruptError",
    "ConfigError",
    "ServeError",
    "AdmissionRejectedError",
    "CircuitOpenError",
    "CorruptTraceWarning",
    "CorruptSimCacheWarning",
    "CorruptCheckpointWarning",
]


class ReproError(Exception):
    """Base class for all failures raised by the reproduction itself."""


class TraceCorruptionError(ReproError):
    """A stored trace is damaged: unreadable, truncated, or checksum-bad.

    Attributes:
        path: the offending trace directory.
        detail: human-readable description of what failed.
        missing_array: stored array file that should exist but does not
            (deleted or never written), or None for byte-level corruption.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        detail: str,
        missing_array: str | None = None,
    ):
        self.path = os.fspath(path)
        self.detail = detail
        self.missing_array = missing_array
        super().__init__(f"corrupt trace {self.path}: {detail}")


class TraceFormatError(ReproError, ValueError):
    """A path is not a trace of a supported format or version.

    Subclasses ValueError for compatibility with callers that predate the
    taxonomy.
    """


class TransferError(ReproError):
    """An AGP block transfer failed after exhausting its retry budget.

    Only raised under a strict :class:`~repro.reliability.TransferPolicy`;
    the default policy degrades (counts stale blocks) instead.
    """

    def __init__(self, blocks: int, attempts: int):
        self.blocks = blocks
        self.attempts = attempts
        super().__init__(
            f"{blocks} block transfer(s) still failing after {attempts} attempt(s)"
        )


class ExperimentError(ReproError):
    """One experiment of a batch failed; wraps the original exception.

    Attributes:
        experiment_id: registry id of the failed experiment.
        traceback_text: formatted traceback captured at the failure site
            (survives journal round-trips, unlike ``__cause__``).
    """

    def __init__(
        self, experiment_id: str, cause: BaseException, traceback_text: str = ""
    ):
        self.experiment_id = experiment_id
        self.traceback_text = traceback_text
        super().__init__(
            f"experiment {experiment_id!r} failed: {type(cause).__name__}: {cause}"
        )
        self.__cause__ = cause


class SweepError(ReproError):
    """Base class for sweep-supervisor failures.

    Attributes:
        task_id: index of the sweep point within the supervised batch.
        attempts: dispatch attempts consumed before giving up.
    """

    def __init__(self, task_id: int, attempts: int, detail: str):
        self.task_id = task_id
        self.attempts = attempts
        super().__init__(
            f"sweep point {task_id} {detail} after {attempts} attempt(s)"
        )


class WorkerCrashError(SweepError):
    """A pool worker died (signal/exitcode) and the retry budget ran out."""

    def __init__(self, task_id: int, attempts: int, exitcode: int | None = None):
        self.exitcode = exitcode
        detail = "kept crashing its worker"
        if exitcode is not None:
            detail += f" (last exitcode {exitcode})"
        super().__init__(task_id, attempts, detail)


class WorkerTimeoutError(SweepError):
    """A sweep point exceeded its watchdog deadline on every attempt."""

    def __init__(self, task_id: int, attempts: int, timeout_s: float):
        self.timeout_s = timeout_s
        super().__init__(
            task_id, attempts, f"exceeded its {timeout_s:g}s watchdog deadline"
        )


class CheckpointCorruptError(ReproError):
    """A simulation checkpoint is damaged, truncated, or mismatched.

    Attributes:
        path: the offending checkpoint file.
        detail: human-readable description of what failed.
    """

    def __init__(self, path: str | os.PathLike, detail: str):
        self.path = os.fspath(path)
        self.detail = detail
        super().__init__(f"corrupt checkpoint {self.path}: {detail}")


class ConfigError(ReproError, ValueError):
    """A configuration knob holds an invalid (or contradictory) value.

    Covers environment variables (``$REPRO_JOBS``), CLI flags
    (``--tenant-policy``) and config fields (``ways``); the rendered
    message prefixes ``$`` only for the (upper-case) environment
    variables. Subclasses ValueError for compatibility with callers that
    predate the taxonomy.

    Attributes:
        variable: the knob's name — an environment variable
            (e.g. ``REPRO_JOBS``), a CLI flag (e.g. ``--tenants``) or a
            config field (e.g. ``ways``).
        value: the offending raw value.
        detail: human-readable description of what is wrong with it.
    """

    def __init__(self, variable: str, value: str, detail: str):
        self.variable = variable
        self.value = value
        self.detail = detail
        prefix = "$" if variable.isupper() else ""
        super().__init__(f"{prefix}{variable}={value!r}: {detail}")


class ServeError(ReproError):
    """Base class for QoS serving-layer failures."""


class AdmissionRejectedError(ServeError):
    """A tenant's frame request was refused at admission.

    Attributes:
        tenant: index of the tenant whose request was refused.
        reason: one of ``"queue-full"`` (bounded queue at capacity —
            backpressure), ``"slo"`` (projected completion would overrun
            the tenant's declared frame-latency budget), or
            ``"breaker-open"`` (the tenant's circuit breaker is open).
    """

    REASONS = ("queue-full", "slo", "breaker-open")

    def __init__(self, tenant: int, reason: str):
        if reason not in self.REASONS:
            raise ValueError(
                f"unknown admission-reject reason {reason!r}; "
                f"choose from {self.REASONS}"
            )
        self.tenant = tenant
        self.reason = reason
        super().__init__(f"tenant {tenant}: request rejected ({reason})")


class CircuitOpenError(ServeError):
    """Work was routed to a tenant whose circuit breaker is open.

    Attributes:
        tenant: index of the tenant with the open breaker.
        probe_epoch: first epoch at which a half-open probe is allowed.
    """

    def __init__(self, tenant: int, probe_epoch: int):
        self.tenant = tenant
        self.probe_epoch = probe_epoch
        super().__init__(
            f"tenant {tenant}: circuit open until probe at epoch {probe_epoch}"
        )


class CorruptTraceWarning(UserWarning):
    """A corrupted cached trace was quarantined and will be re-rendered."""


class CorruptSimCacheWarning(UserWarning):
    """A corrupted cached simulation result was quarantined; re-simulating."""


class CorruptCheckpointWarning(UserWarning):
    """A corrupted checkpoint was quarantined; the run restarts from scratch."""
