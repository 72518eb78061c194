"""Array checksums and trace-archive verification.

Trace format v3 stores a CRC32 per payload array in the manifest
(:mod:`repro.trace.tracefile`). The checksum covers dtype, shape, and the
raw bytes, so silent content swaps — not just byte-level damage the zip
layer already detects — fail verification.

:func:`verify_npz` walks an archive member by member, so a multi-GB trace
can be integrity-checked without materializing a
:class:`~repro.trace.trace.Trace` (each array is decompressed, checksummed,
and dropped).
"""

from __future__ import annotations

import os
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import TraceCorruptionError

__all__ = ["array_checksum", "checksum_manifest", "ArrayCheck", "VerifyReport", "verify_npz"]


def array_checksum(arr: np.ndarray) -> int:
    """CRC32 over an array's dtype, shape, and contents.

    The contents are CRC'd straight from the array's buffer (a byte view,
    not a ``tobytes()`` copy); the value equals the CRC of ``tobytes()``.
    """
    arr = np.ascontiguousarray(arr)
    crc = zlib.crc32(str(arr.dtype).encode("ascii"))
    crc = zlib.crc32(repr(arr.shape).encode("ascii"), crc)
    return zlib.crc32(arr.reshape(-1).view(np.uint8), crc)


def checksum_manifest(payload: dict[str, np.ndarray]) -> dict[str, int]:
    """Checksums for every array of an archive payload."""
    return {name: array_checksum(arr) for name, arr in payload.items()}


@dataclass
class ArrayCheck:
    """Verification outcome for one archive member."""

    name: str
    status: str  # "ok" | "checksum-mismatch" | "unreadable" | "missing" | "unchecksummed"

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "unchecksummed")


@dataclass
class VerifyReport:
    """Whole-archive verification outcome."""

    path: str
    version: int
    n_frames: int
    checks: list[ArrayCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def problems(self) -> list[ArrayCheck]:
        return [c for c in self.checks if not c.ok]

    def frame_status(self, frame: int) -> str:
        """Aggregate status of one frame's arrays ('ok' or the worst failure)."""
        suffix = f"_{frame}"
        bad = [
            c.status
            for c in self.checks
            if c.name.endswith(suffix) and not c.ok
        ]
        return bad[0] if bad else "ok"


def _load_member(
    data: np.lib.npyio.NpzFile, name: str, path: str | os.PathLike
) -> np.ndarray:
    """Read one archive member, normalizing damage to TraceCorruptionError."""
    try:
        return data[name]
    except KeyError:
        raise TraceCorruptionError(
            path, f"missing array {name!r}", missing_array=name
        ) from None
    except (zipfile.BadZipFile, zlib.error, OSError, ValueError, EOFError) as exc:
        raise TraceCorruptionError(
            path, f"array {name!r} unreadable: {exc}"
        ) from exc


def verify_npz(path: str | os.PathLike) -> VerifyReport:
    """Verify a trace archive's structure and checksums, streaming.

    Raises :class:`TraceCorruptionError` only when the archive container or
    its manifest is unreadable, and :class:`~repro.errors.TraceFormatError`
    when the manifest names an unsupported format version; per-array
    damage is reported in the returned :class:`VerifyReport` instead so
    the caller can show a per-frame integrity table.
    """
    # Imported here: the trace format module imports this one.
    from repro.trace.tracefile import _read_meta

    path = os.fspath(path)
    try:
        data = np.load(path)
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
        raise TraceCorruptionError(path, f"unreadable archive: {exc}") from exc
    with data:
        meta = _read_meta(data, path)
        version = int(meta["version"])
        n_frames = int(meta.get("n_frames", 0))
        report = VerifyReport(path=path, version=version, n_frames=n_frames)
        checksums: dict[str, int] = meta.get("checksums", {})

        expected = ["n_fragments"]
        for i in range(n_frames):
            expected.append(f"refs_{i}")
            expected.append(f"weights_{i}")
        present = set(data.files)
        # Optional members (offsets_*) are checked when present.
        optional = [n for n in sorted(present) if n.startswith("offsets_")]

        for name in expected + optional:
            if name not in present:
                report.checks.append(ArrayCheck(name, "missing"))
                continue
            try:
                arr = _load_member(data, name, path)
            except TraceCorruptionError:
                report.checks.append(ArrayCheck(name, "unreadable"))
                continue
            if name not in checksums:
                report.checks.append(ArrayCheck(name, "unchecksummed"))
            elif array_checksum(arr) != checksums[name]:
                report.checks.append(ArrayCheck(name, "checksum-mismatch"))
            else:
                report.checks.append(ArrayCheck(name, "ok"))
    return report
