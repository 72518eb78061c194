"""Disk trace-cache reliability: corrupted entries are quarantined and
transparently re-rendered."""

import numpy as np
import pytest

from repro.errors import CorruptTraceWarning
from repro.experiments.config import Scale
from repro.experiments.traces import (
    _cache_key,
    clear_memory_cache,
    get_trace,
    quarantine_trace,
)
from repro.texture.sampler import FilterMode

MICRO = Scale(width=64, height=48, frames=2, detail=0.2, name="micro")


def cache_path(isolated_trace_cache):
    return (
        isolated_trace_cache
        / f"{_cache_key('city', MICRO, FilterMode.POINT, False, False)}.stream"
    )


class TestQuarantine:
    def test_corrupt_cache_entry_recovered(self, isolated_trace_cache):
        clear_memory_cache()
        # The returned trace maps the cache slot, so keep copies of its
        # frames from before the slot is damaged.
        original = [
            f.refs.copy() for f in get_trace("city", MICRO, FilterMode.POINT).frames
        ]
        path = cache_path(isolated_trace_cache)
        assert path.exists()

        # Bit-flip a cached chunk, then force a cold read.
        chunk = path / "refs_00000.npy"
        raw = bytearray(chunk.read_bytes())
        raw[-1] ^= 0xFF
        chunk.write_bytes(bytes(raw))
        clear_memory_cache()

        with pytest.warns(CorruptTraceWarning, match="quarantined"):
            recovered = get_trace("city", MICRO, FilterMode.POINT)

        # The run still succeeds, with an identical re-render...
        assert len(recovered.frames) == len(original)
        for refs, frame in zip(original, recovered.frames):
            assert np.array_equal(refs, frame.refs)
        # ...the poisoned entry moved to quarantine...
        qnames = [p.name for p in (isolated_trace_cache / "quarantine").iterdir()]
        assert path.name in qnames
        # ...and the cache slot was rewritten with a good copy.
        assert path.exists()
        clear_memory_cache()
        assert get_trace("city", MICRO, FilterMode.POINT) is not None

    def test_truncated_cache_entry_recovered(self, isolated_trace_cache):
        clear_memory_cache()
        get_trace("city", MICRO, FilterMode.POINT)
        path = cache_path(isolated_trace_cache)
        chunk = path / "weights_00000.npy"
        raw = chunk.read_bytes()
        chunk.write_bytes(raw[: len(raw) // 3])
        clear_memory_cache()
        with pytest.warns(CorruptTraceWarning):
            trace = get_trace("city", MICRO, FilterMode.POINT)
        assert trace.meta.n_frames == MICRO.frames

    def test_quarantine_names_do_not_collide(self, tmp_path):
        entry = tmp_path / "x.stream"
        entry.mkdir()
        (entry / "manifest.json").write_bytes(b"bad-1")
        first = quarantine_trace(entry)
        entry.mkdir()
        (entry / "manifest.json").write_bytes(b"bad-2")
        second = quarantine_trace(entry)
        assert first != second
        assert (first / "manifest.json").read_bytes() == b"bad-1"
        assert (second / "manifest.json").read_bytes() == b"bad-2"
