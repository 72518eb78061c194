"""Streamed trace format: round-trip fidelity, corruption handling, laziness."""

import json

import numpy as np
import pytest

from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.errors import TraceCorruptionError, TraceFormatError
from repro.tenancy.address import tag_refs
from repro.tenancy.schedule import _emission_order, merge_traces
from repro.texture.texture import Texture
from repro.trace.stream import (
    DEFAULT_CHUNK_REFS,
    StreamingTrace,
    StreamTraceWriter,
    open_trace,
    save_stream,
)
from repro.trace.trace import FrameTrace, Trace, TraceMeta


def make_trace(n_frames=4, seed=0, with_offsets=True, frame_len=300):
    """A synthetic trace with uneven frames (some chunk-spanning).

    Refs are valid packed tile references into the trace's own texture set
    (texture 0, 64x64, level 0) so the cache hierarchy can replay them.
    """
    from repro.texture.tiling import L1_TILE_TEXELS, pack_tile_refs

    tiles = 64 // L1_TILE_TEXELS
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(n_frames):
        n = int(frame_len * (0.5 + i)) if i % 2 else frame_len // 3
        refs = pack_tile_refs(
            0,
            0,
            rng.integers(0, tiles, size=n),
            rng.integers(0, tiles, size=n),
        )
        weights = rng.integers(1, 9, size=n, dtype=np.int64)
        offsets = (
            np.array([0, n // 2], dtype=np.int64)
            if with_offsets and i % 2 == 0
            else None
        )
        frames.append(
            FrameTrace(refs=refs, weights=weights, n_fragments=n * 2,
                       object_offsets=offsets)
        )
    meta = TraceMeta(workload="synthetic", width=64, height=48,
                     filter_mode="bilinear", n_frames=n_frames)
    textures = [Texture("a", 64, 64), Texture("b", 128, 32)]
    return Trace(meta=meta, frames=frames, textures=textures)


def frames_equal(a: FrameTrace, b: FrameTrace):
    assert np.array_equal(a.refs, b.refs)
    assert a.refs.dtype == b.refs.dtype == np.int64
    assert np.array_equal(a.weights, b.weights)
    assert a.n_fragments == b.n_fragments
    if a.object_offsets is None:
        assert b.object_offsets is None
    else:
        assert np.array_equal(a.object_offsets, b.object_offsets)


class TestRoundTrip:
    @pytest.mark.parametrize("chunk_refs", [64, 257, DEFAULT_CHUNK_REFS])
    def test_round_trip_identical(self, tmp_path, chunk_refs):
        trace = make_trace()
        path = tmp_path / "t.stream"
        save_stream(trace, path, chunk_refs=chunk_refs)
        st = StreamingTrace(path)
        assert st.meta == trace.meta
        assert [t.name for t in st.textures] == [t.name for t in trace.textures]
        assert len(st.frames) == len(trace.frames)
        for a, b in zip(trace.frames, st.frames):
            frames_equal(a, b)
        # Negative indexing and iteration behave like a list.
        frames_equal(trace.frames[-1], st.frames[-1])
        assert len(list(st.frames)) == len(trace.frames)

    def test_fingerprint_matches_materialized(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.stream"
        save_stream(trace, path, chunk_refs=128)
        st = StreamingTrace(path)
        assert st.fingerprint() == trace.fingerprint()
        assert st.total_texel_reads() == trace.total_texel_reads()
        assert st.pixels_per_frame == trace.pixels_per_frame
        for a, b in zip(trace.frames, st.frames):
            frames_equal(a, b)

    def test_writer_streams_frame_by_frame(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.stream"
        with StreamTraceWriter(path, trace.meta, trace.textures,
                               chunk_refs=100) as w:
            for f in trace.frames:
                w.append_frame(f)
        st = StreamingTrace(path)
        for a, b in zip(trace.frames, st.frames):
            frames_equal(a, b)

    def test_empty_frames_round_trip(self, tmp_path):
        meta = TraceMeta(workload="w", width=8, height=8,
                         filter_mode="point", n_frames=2)
        empty = FrameTrace(refs=np.empty(0, dtype=np.int64),
                           weights=np.empty(0, dtype=np.int64), n_fragments=0)
        trace = Trace(meta=meta, frames=[empty, empty],
                      textures=[Texture("t", 16, 16)])
        path = tmp_path / "t.stream"
        save_stream(trace, path)
        st = StreamingTrace(path)
        for f in st.frames:
            assert len(f.refs) == 0 and f.n_fragments == 0
        assert st.fingerprint() == trace.fingerprint()

    def test_frame_count_mismatch_rejected(self, tmp_path):
        trace = make_trace(n_frames=3)
        path = tmp_path / "t.stream"
        w = StreamTraceWriter(path, trace.meta, trace.textures)
        w.append_frame(trace.frames[0])
        with pytest.raises(ValueError, match="declares 3"):
            w.close()
        assert not path.exists()

    def test_abort_leaves_no_output(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.stream"
        with pytest.raises(RuntimeError):
            with StreamTraceWriter(path, trace.meta, trace.textures) as w:
                w.append_frame(trace.frames[0])
                raise RuntimeError("render failed")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # tmp dir cleaned up

    def test_rewrite_replaces_atomically(self, tmp_path):
        path = tmp_path / "t.stream"
        save_stream(make_trace(seed=1), path)
        trace2 = make_trace(seed=2)
        save_stream(trace2, path)
        assert StreamingTrace(path).fingerprint() == trace2.fingerprint()


class TestCorruption:
    def corrupt(self, path, name):
        victim = path / name
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))

    def test_corrupt_chunk_quarantined(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.stream"
        save_stream(trace, path, chunk_refs=100)
        self.corrupt(path, "refs_00000.npy")
        st = StreamingTrace(path)
        with pytest.raises(TraceCorruptionError):
            st.frames[0]
        assert (path / "quarantine" / "refs_00000.npy").exists()
        assert not (path / "refs_00000.npy").exists()

    @staticmethod
    def truncate(path, name):
        victim = path / name
        raw = victim.read_bytes()
        victim.write_bytes(raw[: len(raw) // 2])

    @staticmethod
    def delete(path, name):
        (path / name).unlink()

    @staticmethod
    def swap(path, name):
        # Two same-shape chunks trade contents: each file is a valid
        # ``.npy``, only the manifest checksums can tell.
        other = path / "refs_00002.npy"
        a, b = (path / name).read_bytes(), other.read_bytes()
        (path / name).write_bytes(b)
        other.write_bytes(a)

    @pytest.mark.parametrize("damage", ["truncate", "delete", "swap"])
    def test_damaged_chunk_raises_naming_it(self, tmp_path, damage):
        trace = make_trace()
        path = tmp_path / "t.stream"
        save_stream(trace, path, chunk_refs=100)
        st = StreamingTrace(path)
        assert st.n_chunks > 3
        assert np.load(path / "refs_00001.npy").shape == (100,)
        getattr(self, damage)(path, "refs_00001.npy")
        with pytest.raises(TraceCorruptionError, match="refs_00001.npy"):
            st.fingerprint()

    def test_verify_reports_bad_chunk(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.stream"
        save_stream(trace, path, chunk_refs=100)
        st = StreamingTrace(path)
        assert st.verify().ok
        self.corrupt(path, "weights_00001.npy")
        report = StreamingTrace(path).verify()
        assert not report.ok
        assert [c.name for c in report.problems] == ["weights_00001.npy"]

    def test_corrupt_index_fails_at_open(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.stream"
        save_stream(trace, path)
        self.corrupt(path, "frame_starts.npy")
        with pytest.raises(TraceCorruptionError):
            StreamingTrace(path)

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "t.stream").mkdir()
        with pytest.raises(FileNotFoundError):
            StreamingTrace(tmp_path / "t.stream")

    def test_unsupported_version(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.stream"
        save_stream(trace, path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(TraceFormatError):
            StreamingTrace(path)

    def test_verify_false_skips_checksums(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.stream"
        save_stream(trace, path, chunk_refs=100)
        self.corrupt(path, "refs_00000.npy")
        st = StreamingTrace(path, verify=False)
        st.frames[0]  # loads without raising


class TestOpenTrace:
    def test_dispatch_by_path_kind(self, tmp_path):
        trace = make_trace()
        stream = tmp_path / "t.stream"
        save_stream(trace, stream)
        opened = open_trace(stream)
        assert isinstance(opened, StreamingTrace)
        assert opened.fingerprint() == trace.fingerprint()
        # A file is never a trace: old single-file archives are refused.
        npz = tmp_path / "t.npz"
        npz.write_bytes(b"PK\x03\x04")
        with pytest.raises(TraceFormatError, match="not a trace directory"):
            open_trace(npz)
        with pytest.raises(FileNotFoundError):
            open_trace(tmp_path / "absent.stream")


class TestConsumers:
    def test_hierarchy_runs_streamed_trace(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.stream"
        save_stream(trace, path, chunk_refs=128)
        st = StreamingTrace(path)
        config = HierarchyConfig(
            l1=L1CacheConfig(size_bytes=2048),
            l2=L2CacheConfig(size_bytes=16384),
        )
        res_mem = MultiLevelTextureCache(config, trace.address_space).run_trace(trace)
        res_str = MultiLevelTextureCache(config, st.address_space).run_trace(st)
        assert [f.l1_misses for f in res_mem.frames] == [
            f.l1_misses for f in res_str.frames
        ]
        assert [f.l2.full_misses for f in res_mem.frames] == [
            f.l2.full_misses for f in res_str.frames
        ]

    def test_lazy_merge_identical_to_eager(self):
        # Reference: the whole merge up front, chunks cut with np.split.
        t1, t2 = make_trace(seed=3), make_trace(seed=4)
        lazy, bases = merge_traces([t1, t2], schedule="weighted",
                                   weights=[1.0, 3.0], seed=7, chunk_refs=64)
        warr = np.array([1.0, 3.0])
        for f, got in enumerate(lazy.frames):
            refs, weights = [], []
            for trace, base in zip((t1, t2), bases):
                frame = trace.frames[f]
                bounds = np.arange(64, len(frame.refs), 64)
                refs.append(np.split(tag_refs(frame.refs, base), bounds))
                weights.append(np.split(frame.weights, bounds))
            order = list(zip(*_emission_order(
                "weighted", [len(r) for r in refs], warr, 7, f
            )))
            frames_equal(got, FrameTrace(
                refs=np.concatenate([refs[t][k] for t, k in order]),
                weights=np.concatenate([weights[t][k] for t, k in order]),
                n_fragments=t1.frames[f].n_fragments + t2.frames[f].n_fragments,
            ))

    def test_lazy_merge_of_streamed_tenants(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.stream"
        save_stream(trace, path, chunk_refs=128)
        st = StreamingTrace(path)
        in_ram, _ = merge_traces([trace, trace], schedule="rr", seed=1)
        streamed, _ = merge_traces([st, st], schedule="rr", seed=1)
        for a, b in zip(in_ram.frames, streamed.frames):
            frames_equal(a, b)
