"""Byte identity and memory bound of :class:`StreamTraceWriter`.

The writer reads each frame through :meth:`FrameTrace.blocks`, saves whole
chunks straight from slices of those blocks, and assembles only a chunk
that straddles blocks, in a one-chunk tail buffer. A frame re-appended
from another stream (the ``render --jobs`` merge) is never concatenated.
Chunk boundaries depend only on the concatenated stream, so every chunk
file must equal ``np.save`` of that stream cut every ``chunk_refs``
entries, however the frames split it.
"""

import io
import json
import tracemalloc

import numpy as np
import pytest

from repro.reliability.integrity import array_checksum
from repro.texture.texture import Texture
from repro.trace.stream import (
    DEFAULT_CHUNK_REFS,
    StreamingTrace,
    StreamTraceWriter,
    _SpanFrame,
)
from repro.trace.trace import FrameTrace, TraceMeta


def frame_lengths(chunk: int) -> list[int]:
    """Empty, shorter than a chunk, exactly one, and several chunks.

    The exact chunk lands once on a chunk boundary and once after a pending
    tail, and an empty frame arrives while a tail is pending.
    """
    return [0, chunk, chunk // 2, 0, chunk, 3 * chunk + 2, 0, chunk, max(chunk - 1, 1)]


def make_frames(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [
        FrameTrace(
            refs=rng.integers(0, 1 << 40, size=n, dtype=np.int64),
            weights=rng.integers(1, 9, size=n, dtype=np.int64),
            n_fragments=n,
        )
        for n in lengths
    ]


def write(path, frames, chunk_refs):
    meta = TraceMeta("synthetic", 8, 8, "bilinear", len(frames))
    with StreamTraceWriter(path, meta, [Texture("a", 8, 8)], chunk_refs) as w:
        for frame in frames:
            w.append_frame(frame)


def npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


@pytest.mark.parametrize("chunk_refs", [1, 7, DEFAULT_CHUNK_REFS])
def test_chunks_equal_the_concatenated_stream_cut_at_chunk_refs(
    chunk_refs, tmp_path
):
    frames = make_frames(frame_lengths(chunk_refs))
    path = tmp_path / "t.stream"
    write(path, frames, chunk_refs)
    manifest = json.loads((path / "manifest.json").read_text())
    stream = {
        "refs": np.concatenate([f.refs for f in frames]),
        "weights": np.concatenate([f.weights for f in frames]),
    }
    n_chunks = -(-len(stream["refs"]) // chunk_refs)
    assert manifest["n_chunks"] == n_chunks
    for kind, arr in stream.items():
        for ci in range(n_chunks):
            part = arr[ci * chunk_refs : (ci + 1) * chunk_refs]
            name = f"{kind}_{ci:05d}.npy"
            assert (path / name).read_bytes() == npy_bytes(part), name
            assert manifest["checksums"][name] == array_checksum(part), name
        assert not (path / f"{kind}_{n_chunks:05d}.npy").exists()


def test_empty_trace_writes_one_empty_chunk(tmp_path):
    frames = make_frames([0, 0])
    write(tmp_path / "t.stream", frames, 7)
    empty = np.empty(0, dtype=np.int64)
    for kind in ("refs", "weights"):
        got = (tmp_path / "t.stream" / f"{kind}_00000.npy").read_bytes()
        assert got == npy_bytes(empty)


def test_appending_a_three_chunk_frame_allocates_at_most_one_chunk(tmp_path):
    chunk = 1 << 16
    head, body = make_frames([chunk // 2, 3 * chunk + chunk // 4])
    meta = TraceMeta("synthetic", 8, 8, "bilinear", 2)
    tracemalloc.start()
    try:
        with StreamTraceWriter(tmp_path / "t.stream", meta, [], chunk) as w:
            w.append_frame(head)  # leaves half a chunk pending
            w.append_frame(body)
            _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The tail buffer (one chunk of refs and weights) plus a few KB of
    # np.save bookkeeping; re-concatenating the pending data would take
    # several chunks.
    one_chunk = chunk * (body.refs.itemsize + body.weights.itemsize)
    assert peak <= 1.05 * one_chunk


def test_reappending_a_spanning_stream_frame_allocates_at_most_one_chunk(
    tmp_path,
):
    """The ``render --jobs`` merge: a shard frame that spans chunks goes
    into the merged stream as its chunk views, byte-identically."""
    chunk = 1 << 16
    frames = make_frames([chunk // 2, 3 * chunk + chunk // 4])
    write(tmp_path / "shard.stream", frames, chunk)
    shard = StreamingTrace(tmp_path / "shard.stream")
    head, body = shard.frames[0], shard.frames[1]
    assert isinstance(body, _SpanFrame)
    tracemalloc.start()
    try:
        write(tmp_path / "merged.stream", [head, body], chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The tail buffer plus np.save bookkeeping; concatenating the spanning
    # frame would take over three chunks.
    assert peak <= 1.05 * chunk * 16
    for kind in ("refs", "weights"):
        for ci in range(4):
            name = f"{kind}_{ci:05d}.npy"
            assert (tmp_path / "merged.stream" / name).read_bytes() == (
                tmp_path / "shard.stream" / name
            ).read_bytes(), name
