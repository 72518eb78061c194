"""Trace persistence.

Rendering is the expensive step of the study; traces are stored as
compressed ``.npz`` archives so experiments re-run cache simulations without
re-rendering. The archive holds per-frame ``refs``/``weights`` arrays, the
fragment counts, the texture-set geometry, and the trace metadata.

Format v3 adds a per-array CRC32 manifest (``checksums`` in the JSON meta)
and writes atomically (tmp file + ``os.replace``), so a half-written or
bit-flipped archive is detected at load time as
:class:`~repro.errors.TraceCorruptionError` instead of silently feeding
damaged reference streams into the simulators. Archives of any other
version (v2 had no checksums) are rejected with
:class:`~repro.errors.TraceFormatError`.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib

import numpy as np

from repro.errors import TraceCorruptionError, TraceFormatError
from repro.reliability.atomic import atomic_savez_compressed
from repro.reliability.integrity import array_checksum, checksum_manifest
from repro.texture.texture import Texture
from repro.trace.trace import FrameTrace, Trace, TraceMeta

__all__ = ["save_trace", "load_trace", "read_meta"]

_FORMAT_VERSION = 3


def _build_payload(trace: Trace) -> dict[str, np.ndarray]:
    payload: dict[str, np.ndarray] = {}
    payload["n_fragments"] = np.array(
        [f.n_fragments for f in trace.frames], dtype=np.int64
    )
    for i, frame in enumerate(trace.frames):
        payload[f"refs_{i}"] = frame.refs
        payload[f"weights_{i}"] = frame.weights
        if frame.object_offsets is not None:
            payload[f"offsets_{i}"] = frame.object_offsets
    return payload


def save_trace(trace: Trace, path: str | os.PathLike) -> None:
    """Save a trace as a compressed npz archive (atomically, with checksums)."""
    payload = _build_payload(trace)
    meta = {
        "version": _FORMAT_VERSION,
        "workload": trace.meta.workload,
        "width": trace.meta.width,
        "height": trace.meta.height,
        "filter_mode": trace.meta.filter_mode,
        "n_frames": trace.meta.n_frames,
        "textures": [
            {
                "name": t.name,
                "width": t.width,
                "height": t.height,
                "original_depth_bits": t.original_depth_bits,
            }
            for t in trace.textures
        ],
        "checksums": checksum_manifest(payload),
    }
    payload["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    atomic_savez_compressed(path, **payload)


def _open_archive(path: str | os.PathLike) -> np.lib.npyio.NpzFile:
    try:
        return np.load(path)
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, EOFError, NotImplementedError) as exc:
        raise TraceCorruptionError(path, f"unreadable archive: {exc}") from exc


def _read_array(
    data: np.lib.npyio.NpzFile, name: str, path: str | os.PathLike
) -> np.ndarray:
    """One archive member; missing or damaged members raise corruption."""
    if name not in data.files:
        raise TraceCorruptionError(
            path, f"missing array {name!r} (truncated archive?)", missing_array=name
        )
    try:
        return data[name]
    except (zipfile.BadZipFile, zlib.error, OSError, ValueError, EOFError, NotImplementedError) as exc:
        raise TraceCorruptionError(path, f"array {name!r} unreadable: {exc}") from exc


def _read_meta(data: np.lib.npyio.NpzFile, path: str | os.PathLike) -> dict:
    raw = _read_array(data, "meta_json", path)
    try:
        meta = json.loads(bytes(raw).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceCorruptionError(path, f"manifest undecodable: {exc}") from exc
    version = meta.get("version")
    if version != _FORMAT_VERSION:
        raise TraceFormatError(
            f"trace file {path} has format version {version}, "
            f"expected {_FORMAT_VERSION}"
        )
    return meta


def read_meta(path: str | os.PathLike) -> dict:
    """Read just the JSON manifest of a trace archive (cheap)."""
    with _open_archive(path) as data:
        return _read_meta(data, path)


def _checked(
    arr: np.ndarray, name: str, checksums: dict, path: str | os.PathLike
) -> np.ndarray:
    expected = checksums.get(name)
    if expected is not None and array_checksum(arr) != expected:
        raise TraceCorruptionError(
            path, f"array {name!r} fails its checksum (bit flip or content swap)"
        )
    return arr


def load_trace(path: str | os.PathLike, verify: bool = True) -> Trace:
    """Load a trace saved by :func:`save_trace`.

    Arrays are checksum-verified while loading (disable with
    ``verify=False``). Any structural damage — unreadable zip, missing per-frame arrays, failed
    checksums — raises :class:`TraceCorruptionError` naming the file and
    the offending array.
    """
    with _open_archive(path) as data:
        meta_raw = _read_meta(data, path)
        checksums = meta_raw.get("checksums", {}) if verify else {}
        n_fragments = _checked(
            _read_array(data, "n_fragments", path), "n_fragments", checksums, path
        )
        n_frames = meta_raw["n_frames"]
        if len(n_fragments) != n_frames:
            raise TraceCorruptionError(
                path,
                f"n_fragments has {len(n_fragments)} entries for "
                f"{n_frames} declared frames",
            )
        frames = []
        for i in range(n_frames):
            refs = _checked(
                _read_array(data, f"refs_{i}", path), f"refs_{i}", checksums, path
            )
            weights = _checked(
                _read_array(data, f"weights_{i}", path),
                f"weights_{i}",
                checksums,
                path,
            )
            offsets_name = f"offsets_{i}"
            offsets = (
                _checked(
                    _read_array(data, offsets_name, path),
                    offsets_name,
                    checksums,
                    path,
                )
                if offsets_name in data.files
                else None
            )
            try:
                frames.append(
                    FrameTrace(
                        refs=refs,
                        weights=weights,
                        n_fragments=int(n_fragments[i]),
                        object_offsets=offsets,
                    )
                )
            except ValueError as exc:
                raise TraceCorruptionError(
                    path, f"frame {i} inconsistent: {exc}"
                ) from exc
    textures = [
        Texture(
            name=t["name"],
            width=t["width"],
            height=t["height"],
            original_depth_bits=t["original_depth_bits"],
        )
        for t in meta_raw["textures"]
    ]
    meta = TraceMeta(
        workload=meta_raw["workload"],
        width=meta_raw["width"],
        height=meta_raw["height"],
        filter_mode=meta_raw["filter_mode"],
        n_frames=n_frames,
    )
    return Trace(meta=meta, frames=frames, textures=textures)
