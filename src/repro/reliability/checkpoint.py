"""Frame-granular simulation checkpoints.

A checkpoint captures, at a frame boundary, everything a
:class:`~repro.core.hierarchy.MultiLevelTextureCache` run needs to continue
bit-identically: the per-frame stats completed so far (columnar, the same
layout the simulation store persists) and the full carried state of every
component (L1 ways, L2 page table + BRL + replacement policy, TLB entries
and hand, the faulty-link random stream).

The on-disk format is a deterministic ``.npz`` (fixed zip timestamps, so
equal state produces equal bytes) written atomically
(:mod:`repro.reliability.atomic`) with a CRC32 per payload array in the
manifest (:mod:`repro.reliability.integrity`). Each checkpoint embeds a
*run key* binding it to the exact (trace content, hierarchy config);
resuming against anything else fails loudly instead of silently mixing
runs.

Damage handling mirrors the trace and simulation caches: the strict reader
:func:`read_checkpoint` raises :class:`~repro.errors.CheckpointCorruptError`,
while the tolerant :func:`load_checkpoint` quarantines the damaged file
(``<dir>/quarantine/``), warns :class:`~repro.errors.CorruptCheckpointWarning`,
and lets the caller restart from scratch. A run-key mismatch is *not*
tolerated — that is a caller error, not bit rot.
"""

from __future__ import annotations

import json
import os
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CheckpointCorruptError, CorruptCheckpointWarning

if TYPE_CHECKING:  # the runtime import would be circular via repro.core
    from repro.core.hierarchy import FrameCacheStats, HierarchyConfig
from repro.reliability.atomic import atomic_savez_deterministic
from repro.reliability.integrity import array_checksum
from repro.trace.trace import Trace

__all__ = [
    "CHECKPOINT_VERSION",
    "READABLE_CHECKPOINT_VERSIONS",
    "Checkpoint",
    "run_key",
    "write_checkpoint",
    "read_checkpoint",
    "load_checkpoint",
    "flatten_state",
    "unflatten_state",
]

#: Bump when the serialized layout changes.
#: v3 added per-tenant 2-D frame columns (``f_tenant_*``) and partitioned
#: L2/TLB state trees for multi-tenant runs.
CHECKPOINT_VERSION = 3

#: Layouts the reader accepts.
READABLE_CHECKPOINT_VERSIONS = (CHECKPOINT_VERSION,)


def run_key(trace: Trace, config: HierarchyConfig) -> str:
    """Digest binding a checkpoint to one (trace, config) run."""
    from repro.core.hierarchy import ENGINE

    m = trace.meta
    return "|".join(
        [
            f"ckpt{CHECKPOINT_VERSION}",
            m.workload,
            f"{m.width}x{m.height}",
            m.filter_mode,
            f"f{m.n_frames}",
            f"crc{trace.fingerprint():08x}",
            ENGINE,
            repr(config),
        ]
    )


# ----------------------------------------------------------------------
# State-tree flattening: arbitrary nests of dict/list/scalars/ndarrays
# become a JSON skeleton plus a flat list of named array members.
# ----------------------------------------------------------------------
def _flatten(node, arrays: list[np.ndarray]):
    if isinstance(node, np.ndarray):
        arrays.append(node)
        return {"__array__": len(arrays) - 1}
    if isinstance(node, np.generic):
        return node.item()
    if isinstance(node, dict):
        return {str(k): _flatten(v, arrays) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_flatten(v, arrays) for v in node]
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise TypeError(f"cannot checkpoint state of type {type(node).__name__}")


def _unflatten(node, arrays: dict[int, np.ndarray]):
    if isinstance(node, dict):
        if set(node) == {"__array__"}:
            return arrays[int(node["__array__"])]
        return {k: _unflatten(v, arrays) for k, v in node.items()}
    if isinstance(node, list):
        return [_unflatten(v, arrays) for v in node]
    return node


def flatten_state(state) -> tuple[object, list[np.ndarray]]:
    """Split a state tree into a JSON skeleton plus named array members.

    Public face of the checkpoint flattener for other checkpointable
    subsystems (the serving layer persists its breaker/queue/scheduler
    state through this): any nest of dict/list/scalars/ndarrays becomes
    ``(json_skeleton, arrays)``, invertible by :func:`unflatten_state`.
    """
    arrays: list[np.ndarray] = []
    return _flatten(state, arrays), arrays


def unflatten_state(skeleton, arrays: list[np.ndarray]):
    """Inverse of :func:`flatten_state`."""
    return _unflatten(skeleton, dict(enumerate(arrays)))


@dataclass
class Checkpoint:
    """One decoded checkpoint: where the run stopped and how to continue."""

    key: str
    frame_index: int
    n_frames: int
    frames: list[FrameCacheStats]
    state: dict


def write_checkpoint(
    path: str | os.PathLike,
    *,
    key: str,
    frame_index: int,
    n_frames: int,
    frames: list[FrameCacheStats],
    state: dict,
) -> Path:
    """Atomically persist one checkpoint; returns the path written."""
    from repro.core.hierarchy import frames_to_columns

    if frame_index != len(frames):
        raise ValueError(
            f"frame_index ({frame_index}) must equal the number of "
            f"completed frames ({len(frames)})"
        )
    payload: dict[str, np.ndarray] = {}
    state_arrays: list[np.ndarray] = []
    state_json = _flatten(state, state_arrays)
    for i, arr in enumerate(state_arrays):
        payload[f"s{i}"] = np.ascontiguousarray(arr)
    for name, arr in frames_to_columns(frames).items():
        payload[f"f_{name}"] = arr
    meta = {
        "version": CHECKPOINT_VERSION,
        "key": key,
        "frame_index": int(frame_index),
        "n_frames": int(n_frames),
        "n_state_arrays": len(state_arrays),
        "state": state_json,
        "checksums": {name: array_checksum(arr) for name, arr in payload.items()},
    }
    payload["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    path = Path(path)
    atomic_savez_deterministic(path, **payload)
    return path


def read_checkpoint(
    path: str | os.PathLike, expected_key: str | None = None
) -> Checkpoint:
    """Strictly read and verify a checkpoint.

    Raises :class:`CheckpointCorruptError` on any damage — unreadable
    archive, undecodable manifest, version or checksum mismatch, truncated
    columns — and on a run-key mismatch (the error's ``mismatch``
    attribute distinguishes the latter).
    """
    from repro.core.hierarchy import FRAME_INT_COLUMNS, frames_from_columns

    path = Path(path)
    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
    except (
        zipfile.BadZipFile,
        zlib.error,
        OSError,
        ValueError,
        EOFError,
        KeyError,
        NotImplementedError,  # zipfile: damaged version/compression fields
    ) as exc:
        raise CheckpointCorruptError(path, f"unreadable archive: {exc}") from exc
    try:
        meta = json.loads(bytes(arrays.pop("meta_json")).decode("utf-8"))
    except (KeyError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(path, f"manifest undecodable: {exc}") from exc
    version = meta.get("version")
    if version not in READABLE_CHECKPOINT_VERSIONS:
        raise CheckpointCorruptError(
            path, f"unsupported version {version!r}"
        )
    checksums = meta.get("checksums", {})
    for name, arr in arrays.items():
        if name not in checksums or array_checksum(arr) != checksums[name]:
            raise CheckpointCorruptError(path, f"checksum mismatch on {name!r}")
    if expected_key is not None and meta.get("key") != expected_key:
        exc = CheckpointCorruptError(
            path, "bound to a different (trace, config) run"
        )
        exc.mismatch = True
        raise exc

    frame_index = int(meta.get("frame_index", -1))
    frame_cols = {
        name[2:]: arr for name, arr in arrays.items() if name.startswith("f_")
    }
    for name in FRAME_INT_COLUMNS:
        if name not in frame_cols or len(frame_cols[name]) != frame_index:
            raise CheckpointCorruptError(
                path, f"missing or truncated column {name!r}"
            )
    try:
        frames = frames_from_columns(frame_cols, frame_index)
    except (KeyError, IndexError, ValueError) as exc:
        raise CheckpointCorruptError(path, f"frame columns damaged: {exc}") from exc

    n_state = int(meta.get("n_state_arrays", 0))
    state_arrays = {}
    for i in range(n_state):
        if f"s{i}" not in arrays:
            raise CheckpointCorruptError(path, f"missing state array s{i}")
        state_arrays[i] = arrays[f"s{i}"]
    state = _unflatten(meta.get("state", {}), state_arrays)
    return Checkpoint(
        key=str(meta.get("key", "")),
        frame_index=frame_index,
        n_frames=int(meta.get("n_frames", 0)),
        frames=frames,
        state=state,
    )


def _quarantine(path: Path, detail: str) -> None:
    qdir = path.parent / "quarantine"
    dest = qdir / path.name
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        n = 1
        while dest.exists():
            dest = qdir / f"{path.stem}.{n}{path.suffix}"
            n += 1
        os.replace(path, dest)
        where = f"quarantined to {dest}"
    except FileNotFoundError:
        # A concurrent process already quarantined it; nothing left to move.
        return
    except OSError:
        where = "and could not be quarantined"
    warnings.warn(
        f"corrupt checkpoint {path} ({detail}); {where}, restarting from "
        "scratch",
        CorruptCheckpointWarning,
        stacklevel=3,
    )


def load_checkpoint(
    path: str | os.PathLike, expected_key: str | None = None
) -> Checkpoint | None:
    """Tolerantly load a checkpoint for resumption.

    Returns None when the file is missing, or when it is damaged (the
    damaged file is quarantined with a :class:`CorruptCheckpointWarning` so
    the caller restarts cleanly). A run-key mismatch still raises — that
    means the caller pointed an existing checkpoint at the wrong run.
    """
    path = Path(path)
    if not path.is_file():
        return None
    try:
        return read_checkpoint(path, expected_key=expected_key)
    except CheckpointCorruptError as exc:
        if getattr(exc, "mismatch", False):
            raise
        _quarantine(path, exc.detail)
        return None
