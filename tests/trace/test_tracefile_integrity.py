"""Integrity tests for trace persistence: the checksummed (v3) manifest of
the ``.stream`` trace directory, refusal of retired single-file archives,
corruption detection, and hypothesis round-trip properties."""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceCorruptionError, TraceFormatError
from repro.reliability.integrity import array_checksum
from repro.texture.texture import Texture
from repro.trace.stream import (
    DEFAULT_CHUNK_REFS,
    STREAM_VERSION,
    StreamingTrace,
    open_trace,
    save_stream,
)
from repro.trace.trace import FrameTrace, Trace, TraceMeta


def make_trace(n_frames=3, with_offsets=False, seed=0):
    textures = [Texture("a", 64, 64, original_depth_bits=16),
                Texture("b", 32, 32, original_depth_bits=32)]
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(n_frames):
        n = 6 + i
        offsets = np.array([0, n // 2], dtype=np.int64) if with_offsets else None
        frames.append(
            FrameTrace(
                refs=rng.integers(0, 1000, n).astype(np.int64),
                weights=rng.integers(1, 5, n).astype(np.int64),
                n_fragments=n * 3,
                object_offsets=offsets,
            )
        )
    meta = TraceMeta("village", 320, 240, "bilinear", n_frames)
    return Trace(meta=meta, frames=frames, textures=textures)


def save_v2(trace, path):
    """Write a retired single-file ``.npz`` archive (the v2 layout)."""
    payload = {}
    meta = {
        "version": 2,
        "workload": trace.meta.workload,
        "width": trace.meta.width,
        "height": trace.meta.height,
        "filter_mode": trace.meta.filter_mode,
        "n_frames": trace.meta.n_frames,
        "textures": [
            {"name": t.name, "width": t.width, "height": t.height,
             "original_depth_bits": t.original_depth_bits}
            for t in trace.textures
        ],
    }
    payload["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    payload["n_fragments"] = np.array(
        [f.n_fragments for f in trace.frames], dtype=np.int64
    )
    for i, frame in enumerate(trace.frames):
        payload[f"refs_{i}"] = frame.refs
        payload[f"weights_{i}"] = frame.weights
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **payload)


def assert_traces_equal(a, b):
    assert a.meta == b.meta
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.refs, fb.refs)
        assert np.array_equal(fa.weights, fb.weights)
        assert fa.n_fragments == fb.n_fragments
        if fa.object_offsets is None:
            assert fb.object_offsets is None
        else:
            assert np.array_equal(fa.object_offsets, fb.object_offsets)
    assert [t.name for t in a.textures] == [t.name for t in b.textures]


def load(path, **kw):
    """Open a trace and read every chunk (the fingerprint CRCs them all)."""
    trace = open_trace(path, **kw)
    trace.fingerprint()
    return trace


def flip_byte(path, offset):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestV3Format:
    def test_manifest_has_checksums(self, tmp_path):
        path = tmp_path / "t.stream"
        save_stream(make_trace(), path)
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["version"] == STREAM_VERSION
        assert "refs_00000.npy" in manifest["checksums"]
        assert "n_fragments.npy" in manifest["checksums"]

    def test_roundtrip_with_offsets(self, tmp_path):
        t = make_trace(with_offsets=True)
        path = tmp_path / "t.stream"
        save_stream(t, path)
        assert_traces_equal(t, load(path))

    def test_save_is_atomic_no_leftovers(self, tmp_path):
        save_stream(make_trace(), tmp_path / "t.stream")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.stream"]

    def test_legacy_v2_rejected(self, tmp_path):
        path = tmp_path / "v2.npz"
        save_v2(make_trace(), path)
        raw = path.read_bytes()
        with pytest.raises(TraceFormatError, match="re-render it as a .stream"):
            open_trace(path)
        # Refused, not treated as damage: nothing is moved or rewritten.
        assert path.read_bytes() == raw
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v2.npz"]

    def test_unsupported_version_rejected_as_valueerror(self, tmp_path):
        path = tmp_path / "t.stream"
        save_stream(make_trace(), path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(TraceFormatError, match="version 99"):
            open_trace(path)
        with pytest.raises(ValueError):  # taxonomy keeps the legacy contract
            open_trace(path)


class TestCorruptionDetection:
    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.stream"
        save_stream(make_trace(), path)
        manifest = path / "manifest.json"
        raw = manifest.read_bytes()
        manifest.write_bytes(raw[: int(len(raw) * 0.6)])
        with pytest.raises(TraceCorruptionError, match="manifest"):
            open_trace(path)

    def test_missing_frame_array_named(self, tmp_path):
        path = tmp_path / "t.stream"
        save_stream(make_trace(n_frames=2), path)
        (path / "n_fragments.npy").unlink()
        with pytest.raises(TraceCorruptionError) as excinfo:
            open_trace(path)
        assert excinfo.value.missing_array == "n_fragments.npy"
        assert "n_fragments.npy" in str(excinfo.value)
        assert str(path) in str(excinfo.value)

    def test_bit_flip_in_archive(self, tmp_path):
        path = tmp_path / "t.stream"
        save_stream(make_trace(), path, chunk_refs=8)
        chunk = path / "weights_00001.npy"
        flip_byte(chunk, len(chunk.read_bytes()) - 8)  # inside the payload
        with pytest.raises(TraceCorruptionError, match="weights_00001.npy"):
            load(path)

    def test_content_swap_caught_by_checksum(self, tmp_path):
        # A well-formed chunk with one value changed: numpy reads it
        # happily, only the trace-level checksum can catch it.
        path = tmp_path / "t.stream"
        save_stream(make_trace(), path)
        chunk = path / "refs_00000.npy"
        refs = np.load(chunk)
        refs[0] ^= 1
        np.save(chunk, refs)
        with pytest.raises(TraceCorruptionError) as excinfo:
            load(path)
        assert "refs_00000.npy" in str(excinfo.value)
        # verify=False trusts the (intact) files and loads.
        np.save(chunk, refs)  # the failed read quarantined it
        assert load(path, verify=False) is not None

    def test_nonexistent_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_trace(tmp_path / "missing.stream")
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_clean_stream_ok(self, tmp_path):
        path = tmp_path / "t.stream"
        save_stream(make_trace(), path)
        report = open_trace(path).verify()
        assert report.ok
        assert report.version == STREAM_VERSION
        assert report.n_frames == 3
        assert all(report.frame_status(i) == "ok" for i in range(3))

    def test_damaged_chunk_reported_per_frame(self, tmp_path):
        # Frames hold 6, 7 and 8 entries; 5-entry chunks put stream
        # entries 5..9 (the end of frame 0, the start of frame 1) in
        # chunk 1.
        path = tmp_path / "t.stream"
        save_stream(make_trace(), path, chunk_refs=5)
        chunk = path / "weights_00001.npy"
        weights = np.load(chunk)
        weights[0] += 1
        np.save(chunk, weights)
        report = open_trace(path).verify()
        assert not report.ok
        assert [report.frame_status(i) for i in range(3)] == [
            "checksum-mismatch", "checksum-mismatch", "ok",
        ]
        assert [c.name for c in report.problems] == ["weights_00001.npy"]
        assert chunk.exists()  # verify never quarantines

    def test_deleted_chunk_reported_missing(self, tmp_path):
        path = tmp_path / "t.stream"
        save_stream(make_trace(), path, chunk_refs=5)
        (path / "refs_00004.npy").unlink()  # entry 20: frame 2 only
        report = open_trace(path).verify()
        assert [report.frame_status(i) for i in range(3)] == [
            "ok", "ok", "missing",
        ]

    def test_undecodable_manifest_raises(self, tmp_path):
        path = tmp_path / "junk.stream"
        path.mkdir()
        (path / "manifest.json").write_bytes(b"this is not a manifest")
        with pytest.raises(TraceCorruptionError):
            open_trace(path)


class TestChecksum:
    def test_sensitive_to_content_shape_dtype(self):
        a = np.arange(8, dtype=np.int64)
        assert array_checksum(a) == array_checksum(a.copy())
        assert array_checksum(a) != array_checksum(a.astype(np.int32))
        assert array_checksum(a) != array_checksum(a.reshape(2, 4))
        b = a.copy()
        b[3] ^= 1
        assert array_checksum(a) != array_checksum(b)

    @pytest.mark.parametrize(
        "arr, pinned",
        [
            (np.empty(0, dtype=np.int64), 2002980501),
            (np.array(7, dtype=np.int64), 1554286931),
            (np.arange(12, dtype=np.int64).reshape(3, 4), 2813815352),
            (np.arange(24, dtype=np.int64).reshape(4, 6)[:, ::2], 1076401133),
            (np.array([True, False, True]), 2520727681),
            (np.linspace(0, 1, 5, dtype=np.float32), 2233040641),
        ],
        ids=["empty", "0-d", "2-d", "non-contiguous", "bool", "float32"],
    )
    def test_value_is_the_tobytes_formula(self, arr, pinned):
        # The CRC reads the buffer in place, but every value stays that of
        # the original ``tobytes()`` formula, so traces and checkpoints
        # written before still verify.
        c = np.ascontiguousarray(arr)
        crc = zlib.crc32(str(c.dtype).encode("ascii"))
        crc = zlib.crc32(repr(c.shape).encode("ascii"), crc)
        assert array_checksum(arr) == zlib.crc32(c.tobytes(), crc) == pinned

    def test_fingerprint_is_the_tobytes_formula(self):
        trace = make_trace(n_frames=3)
        strided = FrameTrace(
            refs=np.arange(40, dtype=np.int64)[::2],
            weights=np.ones(20, dtype=np.int64),
            n_fragments=20,
        )
        trace = Trace(
            meta=trace.meta, frames=[*trace.frames[:2], strided],
            textures=trace.textures,
        )
        crc = 0
        for frame in trace.frames:
            crc = zlib.crc32(np.ascontiguousarray(frame.refs).tobytes(), crc)
            crc = zlib.crc32(np.ascontiguousarray(frame.weights).tobytes(), crc)
        assert trace.fingerprint() == crc


# ----------------------------------------------------------------------
# Property tests: arbitrary traces survive a save/load round trip at any
# chunk size, and retired single-file archives are refused.
# ----------------------------------------------------------------------

frame_strategy = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 2**40), min_size=n, max_size=n),
        st.lists(st.integers(1, 100), min_size=n, max_size=n),
        st.integers(0, 10_000),
        st.one_of(
            st.none(),
            st.lists(st.integers(0, n), max_size=4).map(
                lambda xs: [0, *sorted(xs)]
            ),
        ),
    )
)


def build_trace(frame_specs):
    frames = [
        FrameTrace(
            refs=np.array(refs, dtype=np.int64),
            weights=np.array(weights, dtype=np.int64),
            n_fragments=n_fragments,
            object_offsets=(
                None if offsets is None else np.array(offsets, dtype=np.int64)
            ),
        )
        for refs, weights, n_fragments, offsets in frame_specs
    ]
    meta = TraceMeta("prop", 64, 48, "point", len(frames))
    return Trace(meta=meta, frames=frames, textures=[Texture("t", 32, 32)])


@settings(max_examples=25, deadline=None)
@given(st.lists(frame_strategy, min_size=1, max_size=5))
def test_roundtrip_property_v3(tmp_path_factory, frame_specs):
    trace = build_trace(frame_specs)
    root = tmp_path_factory.mktemp("prop")
    for chunk_refs in (1, 7, DEFAULT_CHUNK_REFS):
        path = root / f"t{chunk_refs}.stream"
        save_stream(trace, path, chunk_refs=chunk_refs)
        streamed = StreamingTrace(path)
        assert_traces_equal(trace, streamed)
        assert streamed.fingerprint() == trace.fingerprint()
        assert streamed.verify().ok


@settings(max_examples=25)
@given(st.lists(frame_strategy, min_size=1, max_size=5))
def test_property_legacy_v2_rejected(tmp_path_factory, frame_specs):
    trace = build_trace(frame_specs)
    path = tmp_path_factory.mktemp("prop") / "t.npz"
    save_v2(trace, path)
    with pytest.raises(TraceFormatError):
        open_trace(path)
