"""Integrity tests for trace persistence: v3 checksums, v2 rejection,
corruption detection, and hypothesis round-trip properties."""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceCorruptionError, TraceFormatError
from repro.reliability.integrity import array_checksum, verify_npz
from repro.texture.texture import Texture
from repro.trace.trace import FrameTrace, Trace, TraceMeta
from repro.trace.tracefile import load_trace, read_meta, save_trace


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
    """Write the legacy v2 layout (no checksums, in-place write)."""
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


class TestV3Format:
    def test_manifest_has_checksums(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(make_trace(), path)
        meta = read_meta(path)
        assert meta["version"] == 3
        assert "refs_0" in meta["checksums"]
        assert "n_fragments" in meta["checksums"]

    def test_roundtrip_with_offsets(self, tmp_path):
        t = make_trace(with_offsets=True)
        path = tmp_path / "t.npz"
        save_trace(t, path)
        assert_traces_equal(t, load_trace(path))

    def test_save_is_atomic_no_leftovers(self, tmp_path):
        save_trace(make_trace(), tmp_path / "t.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.npz"]

    def test_legacy_v2_rejected(self, tmp_path):
        path = tmp_path / "v2.npz"
        save_v2(make_trace(), path)
        with pytest.raises(TraceFormatError, match="version 2"):
            load_trace(path)
        with pytest.raises(TraceFormatError):
            read_meta(path)

    def test_unsupported_version_rejected_as_valueerror(self, tmp_path):
        import repro.trace.tracefile as tf

        path = tmp_path / "t.npz"
        old = tf._FORMAT_VERSION
        try:
            tf._FORMAT_VERSION = 99
            save_trace(make_trace(), path)
        finally:
            tf._FORMAT_VERSION = old
        with pytest.raises(TraceFormatError):
            load_trace(path)
        with pytest.raises(ValueError):  # taxonomy keeps the legacy contract
            load_trace(path)


class TestCorruptionDetection:
    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(make_trace(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: int(len(raw) * 0.6)])
        with pytest.raises(TraceCorruptionError):
            load_trace(path)

    def test_missing_frame_array_named(self, tmp_path):
        t = make_trace(n_frames=2)
        path = tmp_path / "t.npz"
        save_trace(t, path)
        # Rewrite the archive without refs_1 (a half-written cache entry).
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files if k != "refs_1"}
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **payload)
        with pytest.raises(TraceCorruptionError) as excinfo:
            load_trace(path)
        assert excinfo.value.missing_array == "refs_1"
        assert "refs_1" in str(excinfo.value)
        assert str(path) in str(excinfo.value)

    def test_bit_flip_in_archive(self, tmp_path):
        import struct
        import zipfile

        path = tmp_path / "t.npz"
        save_trace(make_trace(), path)
        # Flip a byte inside refs_0's compressed payload, where the zip
        # layer's member CRC catches it. The name/extra lengths must come
        # from the local header — it can carry a zip64 extra field the
        # central directory entry omits.
        with zipfile.ZipFile(path) as zf:
            header_offset = zf.getinfo("refs_0.npy").header_offset
        raw = bytearray(path.read_bytes())
        name_len, extra_len = struct.unpack_from("<HH", raw, header_offset + 26)
        raw[header_offset + 30 + name_len + extra_len + 4] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceCorruptionError):
            load_trace(path)

    def test_content_swap_caught_by_checksum(self, tmp_path):
        # Rebuild the zip with one array's contents changed but the
        # original manifest: the container is intact (zip CRCs match the
        # new bytes), only the trace-level checksum can catch it.
        path = tmp_path / "t.npz"
        save_trace(make_trace(), path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["refs_0"] = payload["refs_0"].copy()
        payload["refs_0"][0] ^= 1
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **payload)
        with pytest.raises(TraceCorruptionError) as excinfo:
            load_trace(path)
        assert "refs_0" in str(excinfo.value)
        # verify=False trusts the (intact) container and loads.
        assert load_trace(path, verify=False) is not None

    def test_nonexistent_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "missing.npz")


class TestVerifyNpz:
    def test_clean_archive_ok(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(make_trace(), path)
        report = verify_npz(path)
        assert report.ok
        assert report.version == 3
        assert report.n_frames == 3
        assert all(report.frame_status(i) == "ok" for i in range(3))

    def test_v2_rejected_as_unsupported(self, tmp_path):
        path = tmp_path / "v2.npz"
        save_v2(make_trace(), path)
        with pytest.raises(TraceFormatError, match="version 2"):
            verify_npz(path)

    def test_damaged_member_reported_per_frame(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(make_trace(), path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["weights_1"] = payload["weights_1"].copy()
        payload["weights_1"][0] += 1
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **payload)
        report = verify_npz(path)
        assert not report.ok
        assert report.frame_status(0) == "ok"
        assert report.frame_status(1) == "checksum-mismatch"
        assert [c.name for c in report.problems] == ["weights_1"]

    def test_unreadable_container_raises(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(TraceCorruptionError):
            verify_npz(path)


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
# Property tests: arbitrary traces survive a save/load round trip in the
# current format, and are refused in the legacy one.
# ----------------------------------------------------------------------

frame_strategy = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 2**40), min_size=n, max_size=n),
        st.lists(st.integers(1, 100), min_size=n, max_size=n),
        st.integers(0, 10_000),
    )
)


def build_trace(frame_specs):
    frames = [
        FrameTrace(
            refs=np.array(refs, dtype=np.int64),
            weights=np.array(weights, dtype=np.int64),
            n_fragments=n_fragments,
        )
        for refs, weights, n_fragments in frame_specs
    ]
    meta = TraceMeta("prop", 64, 48, "point", len(frames))
    return Trace(meta=meta, frames=frames, textures=[Texture("t", 32, 32)])


@settings(max_examples=25)
@given(st.lists(frame_strategy, min_size=1, max_size=5))
def test_roundtrip_property_v3(tmp_path_factory, frame_specs):
    trace = build_trace(frame_specs)
    path = tmp_path_factory.mktemp("prop") / "t.npz"
    save_trace(trace, path)
    assert_traces_equal(trace, load_trace(path))
    assert verify_npz(path).ok


@settings(max_examples=25)
@given(st.lists(frame_strategy, min_size=1, max_size=5))
def test_property_legacy_v2_rejected(tmp_path_factory, frame_specs):
    trace = build_trace(frame_specs)
    path = tmp_path_factory.mktemp("prop") / "t.npz"
    save_v2(trace, path)
    with pytest.raises(TraceFormatError):
        load_trace(path)
