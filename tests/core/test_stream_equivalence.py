"""A ``.stream`` trace simulates exactly like its in-RAM twin.

``run_frame`` walks every frame through :meth:`FrameTrace.blocks`, VT's
feedback pass and tenant attribution included. A frame read from a
``.stream`` yields views of its mmap'd chunks, cut at every chunk edge as
well as every ``FRAME_BLOCK`` refs, and is never copied. One trace is
saved at several chunk lengths, with frames that are empty, sit inside
one chunk and span three or more chunks, and every run must give the
in-RAM trace's ``frames_to_columns`` and end state.
"""

import numpy as np
import pytest

from repro.core import hierarchy
from repro.core.hierarchy import (
    HierarchyConfig,
    MultiLevelTextureCache,
    frames_to_columns,
)
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.reliability import checkpoint as ckpt
from repro.reliability.faults import FaultModel
from repro.reliability.transfer import TransferPolicy
from repro.tenancy import TenancyConfig
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace, pack_tile_refs
from repro.trace.stream import (
    DEFAULT_CHUNK_REFS,
    StreamingTrace,
    _SpanFrame,
    save_stream,
)
from repro.trace.trace import FrameTrace, Trace, TraceMeta
from repro.vt import VtConfig
from tests.core.test_frame_blocking import assert_tree_equal

# With 7-entry chunks: an empty first frame, frames spanning many chunks,
# the one-entry frame at stream position 1537 (= 219 * 7 + 4) inside one
# chunk, and a trailing empty frame.
FRAME_LENGTHS = (0, 1500, 37, 0, 1, 400, 3, 0)
CHUNKS = (1, 7, DEFAULT_CHUNK_REFS)

SPACE = AddressSpace(
    [Texture("a", 64, 64), Texture("b", 128, 64), Texture("c", 128, 128)]
)


def _trace(seed=11):
    """Random walks over a 4x4-tile window of every texture and MIP 0-2."""
    rng = np.random.default_rng(seed)
    frames = []
    for n in FRAME_LENGTHS:
        tid = np.repeat(rng.integers(SPACE.texture_count, size=n // 50 + 1), 50)[:n]
        mip = np.repeat(rng.integers(3, size=n // 50 + 1), 50)[:n]
        pos = np.cumsum(rng.integers(-1, 2, size=(n, 2)), axis=0)
        refs = pack_tile_refs(tid, mip, np.mod(pos[:, 1], 4), np.mod(pos[:, 0], 4))
        weights = rng.integers(1, 5, size=n).astype(np.int64)
        frames.append(FrameTrace(refs, weights, int(weights.sum())))
    meta = TraceMeta("stream-blocks", 16, 16, "point", len(frames))
    return Trace(meta=meta, frames=frames, textures=SPACE.textures)


def _l2(**overrides):
    return dict(
        l1=L1CacheConfig(size_bytes=2048),
        l2=L2CacheConfig(size_bytes=8 * 1024, l2_tile_texels=16),
        **overrides,
    )


CONFIGS = {
    "l2-tlb": HierarchyConfig(**_l2(tlb_entries=4)),
    "faults": HierarchyConfig(
        **_l2(
            tlb_entries=4,
            fault_model=FaultModel(drop_rate=0.2, spike_rate=0.1, seed=3),
            transfer_policy=TransferPolicy(max_retries=2, backoff_base_us=5.0),
        )
    ),
    "vt": HierarchyConfig(
        l1=L1CacheConfig(size_bytes=2048),
        vt=VtConfig(page_texels=16, max_resident_pages=8, max_in_flight=4),
    ),
    "tenancy": HierarchyConfig(
        **_l2(
            tlb_entries=4,
            tenancy=TenancyConfig(
                tid_bases=(0, 1), policy="way", quotas=(4, 4), ways=8
            ),
        )
    ),
}


@pytest.fixture(scope="module")
def trace():
    return _trace()


@pytest.fixture(scope="module", params=CHUNKS, ids=lambda c: f"chunk{c}")
def stream(request, trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("streams") / f"c{request.param}.stream"
    save_stream(trace, path, chunk_refs=request.param)
    return StreamingTrace(path)


def _run(config, trace, **kwargs):
    sim = MultiLevelTextureCache(config, SPACE)
    result = sim.run_trace(trace, **kwargs)
    return frames_to_columns(result.frames), sim.snapshot_state()


def assert_columns_equal(got, want):
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_stream_holds_every_kind_of_frame(trace, tmp_path):
    """The fixture trace really has the frame shapes the tests rely on."""
    path = tmp_path / "t.stream"
    save_stream(trace, path, chunk_refs=7)
    starts = StreamingTrace(path).frame_starts
    first = starts[:-1] // 7
    last = (starts[1:] - 1) // 7
    lengths = np.diff(starts)
    assert np.any(lengths == 0)
    assert np.any((lengths > 0) & (first == last))
    assert np.any(last - first >= 2)


@pytest.mark.parametrize("block", [None, 5], ids=["default-block", "block5"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stream_run_matches_in_ram(name, block, trace, stream, monkeypatch):
    config = CONFIGS[name]
    want_cols, want_state = _run(config, trace)
    if block is not None:
        monkeypatch.setattr(hierarchy, "FRAME_BLOCK", block)
    got_cols, got_state = _run(config, stream)
    assert_columns_equal(got_cols, want_cols)
    assert ckpt.run_key(stream, config) == ckpt.run_key(trace, config)
    assert_tree_equal(got_state, want_state)
    assert want_cols["l1_misses"].sum() > 0
    if config.l2 is not None:
        assert want_cols["l2_evictions"].sum() > 0


@pytest.mark.parametrize("name", ["vt", "tenancy"])
def test_vt_and_tenant_runs_never_assemble_a_frame(
    name, trace, stream, monkeypatch
):
    """A frame spanning chunks never fills its whole ``refs``/``weights``."""
    want_cols, want_state = _run(CONFIGS[name], trace)

    def assembled(frame):
        raise AssertionError("a frame spanning chunks was concatenated")

    monkeypatch.setattr(_SpanFrame, "refs", property(assembled))
    monkeypatch.setattr(_SpanFrame, "weights", property(assembled))
    got_cols, got_state = _run(CONFIGS[name], stream)
    assert_columns_equal(got_cols, want_cols)
    assert_tree_equal(got_state, want_state)


def test_checkpoint_resume_over_stream(trace, stream, tmp_path):
    config = CONFIGS["faults"]
    want_cols, _ = _run(config, trace)
    path = tmp_path / "run.ckpt"
    # Checkpoint the in-RAM run; resume it from the stream (the run key
    # binds the trace's fingerprint, so the two must agree).
    cols, _ = _run(config, trace, checkpoint_path=path, checkpoint_every=3)
    assert_columns_equal(cols, want_cols)
    loaded = ckpt.read_checkpoint(path)
    assert 0 < loaded.frame_index < len(FRAME_LENGTHS)
    cols, _ = _run(
        config, stream, checkpoint_path=path, checkpoint_every=3, resume=True
    )
    assert_columns_equal(cols, want_cols)
    # And a checkpointed run straight off the stream.
    path.unlink()
    cols, _ = _run(config, stream, checkpoint_path=path, checkpoint_every=3)
    assert_columns_equal(cols, want_cols)
