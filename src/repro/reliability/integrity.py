"""Array checksums and trace verification reports.

Every persisted array — streamed-trace chunks and index files, checkpoint
and simulation-store payloads — is stored beside its CRC32. The checksum
covers dtype, shape, and the raw bytes, so silent content swaps, not just
byte-level damage, fail verification.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["array_checksum", "ArrayCheck", "VerifyReport"]


def array_checksum(arr: np.ndarray) -> int:
    """CRC32 over an array's dtype, shape, and contents.

    The contents are CRC'd straight from the array's buffer (a byte view,
    not a ``tobytes()`` copy); the value equals the CRC of ``tobytes()``.
    """
    arr = np.ascontiguousarray(arr)
    crc = zlib.crc32(str(arr.dtype).encode("ascii"))
    crc = zlib.crc32(repr(arr.shape).encode("ascii"), crc)
    return zlib.crc32(arr.reshape(-1).view(np.uint8), crc)


@dataclass
class ArrayCheck:
    """Verification outcome for one stored array."""

    name: str
    status: str  # "ok" | "checksum-mismatch" | "unreadable" | "missing" | "unchecksummed"

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "unchecksummed")


@dataclass
class VerifyReport:
    """Whole-trace verification outcome.

    ``frame_problems`` maps each frame that reads a damaged array to that
    array's status; frames absent from it verified clean.
    """

    path: str
    version: int
    n_frames: int
    checks: list[ArrayCheck] = field(default_factory=list)
    frame_problems: dict[int, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def problems(self) -> list[ArrayCheck]:
        return [c for c in self.checks if not c.ok]

    def frame_status(self, frame: int) -> str:
        """Status of one frame's data: 'ok' or the first failure it reads."""
        return self.frame_problems.get(frame, "ok")
