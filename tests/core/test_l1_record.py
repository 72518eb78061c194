"""The L1 record: a plain run over a streamed trace replays the last run's
L1 miss stream when the L1 and the trace are the same (DESIGN §8.4).

Every test runs on a ``.stream`` written with a short chunk length, so
frames span chunks and the recorded blocks are cut at chunk edges. A
replayed run must equal a run of the same config on a freshly opened
trace in ``TraceRunResult`` and in ``snapshot_state()``; every run outside
the record's rules must call the L1 kernel for every block.
"""

import numpy as np
import pytest

from repro.core import hierarchy
from repro.core.hierarchy import FRAME_BLOCK, HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.errors import TraceCorruptionError
from repro.reliability.faults import FaultModel
from repro.reliability.transfer import TransferPolicy
from repro.tenancy import TenancyConfig
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace, pack_tile_refs
from repro.trace.stream import open_trace, save_stream
from repro.trace.trace import FrameTrace, Trace, TraceMeta
from repro.vt import VtConfig
from tests.core.test_frame_blocking import assert_tree_equal
from tests.oracle import reference_hierarchy

# An empty frame, frames inside one chunk and frames spanning several.
FRAME_LENGTHS = (700, 0, 37, 1300, 450)
CHUNK_REFS = 256

TEXTURES = [Texture("a", 64, 64), Texture("b", 128, 64), Texture("c", 128, 128)]


def _trace():
    """Random walks over a 4x4-tile window of every texture and MIP 0-2."""
    space = AddressSpace(TEXTURES)
    rng = np.random.default_rng(29)
    frames = []
    for n in FRAME_LENGTHS:
        tid = np.repeat(rng.integers(space.texture_count, size=n // 50 + 1), 50)[:n]
        mip = np.repeat(rng.integers(3, size=n // 50 + 1), 50)[:n]
        pos = np.cumsum(rng.integers(-1, 2, size=(n, 2)), axis=0)
        refs = pack_tile_refs(tid, mip, np.mod(pos[:, 1], 4), np.mod(pos[:, 0], 4))
        weights = rng.integers(1, 5, size=n).astype(np.int64)
        frames.append(FrameTrace(refs, weights, int(weights.sum())))
    meta = TraceMeta("l1-record", 16, 16, "point", len(frames))
    return Trace(meta=meta, frames=frames, textures=TEXTURES)


def _l1(ways=2):
    return L1CacheConfig(size_bytes=2048, ways=ways)


def _l2(tile=16, ways=2, **overrides):
    return HierarchyConfig(
        l1=_l1(ways),
        l2=L2CacheConfig(size_bytes=8 * 1024, l2_tile_texels=tile),
        **overrides,
    )


FAULTS = dict(
    fault_model=FaultModel(drop_rate=0.2, spike_rate=0.1, seed=3),
    transfer_policy=TransferPolicy(max_retries=2, backoff_base_us=5.0),
)

# Each replayed config, and the config that records before it (same L1).
REPLAYED = {
    "tlb-round-robin": (_l2(tlb_entries=4), HierarchyConfig(l1=_l1())),
    "tlb-lru": (_l2(tlb_entries=4, tlb_policy="lru"), _l2(tlb_entries=4)),
    "pull": (HierarchyConfig(l1=_l1()), _l2(tlb_entries=4)),
    "faults": (_l2(tlb_entries=4, **FAULTS), _l2()),
    "pull-faults": (HierarchyConfig(l1=_l1(), **FAULTS), _l2()),
    "l1-1way": (_l2(ways=1, tlb_entries=4), HierarchyConfig(l1=_l1(1))),
    "l1-4way": (_l2(ways=4, tlb_entries=4), HierarchyConfig(l1=_l1(4))),
    "tile8": (_l2(tile=8, tlb_entries=4), _l2(tile=32)),
    "tile32": (_l2(tile=32, tlb_entries=4), _l2(tile=8)),
}


@pytest.fixture(autouse=True)
def empty_slot(monkeypatch):
    monkeypatch.setattr(hierarchy, "_l1_record", None)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    p = tmp_path_factory.mktemp("record") / "t.stream"
    save_stream(_trace(), p, chunk_refs=CHUNK_REFS)
    return p


def _n_blocks(trace):
    return sum(len(list(f.blocks(FRAME_BLOCK))) for f in trace.frames)


def _sim(config, trace, make=MultiLevelTextureCache, space=None):
    """A simulator whose L1 counts its ``access_frame`` calls."""
    sim = make(config, trace.address_space if space is None else space)
    sim.l1_calls = 0
    inner = sim.l1.access_frame

    def counted(*args):
        sim.l1_calls += 1
        return inner(*args)

    sim.l1.access_frame = counted
    return sim


def _run(config, trace, **kwargs):
    sim = _sim(config, trace)
    result = sim.run_trace(trace, **kwargs)
    return result, sim.snapshot_state(), sim.l1_calls


def _computed(config, path):
    """``config`` on a freshly opened trace, which no record serves."""
    result, state, calls = _run(config, open_trace(path))
    assert calls > 0
    return result, state


def test_fixture_records_and_spans_chunks(path):
    trace = open_trace(path)
    assert np.any(np.diff(trace.frame_starts) > CHUNK_REFS)
    result, _, _ = _run(_l2(tlb_entries=4), trace)
    assert hierarchy._l1_record is not None
    assert 0 < result.total_l1_misses <= trace.map_budget


@pytest.mark.parametrize("name", sorted(REPLAYED))
def test_replay_equals_compute(name, path):
    config, recorder = REPLAYED[name]
    trace = open_trace(path)
    _run(recorder, trace)
    got, got_state, calls = _run(config, trace)
    assert calls == 0
    want, want_state = _computed(config, path)
    assert got == want
    assert_tree_equal(got_state, want_state)
    assert want.total_l1_misses > 0
    if config.l2 is not None:
        assert sum(f.l2.evictions for f in want.frames) > 0


def test_oracle_runs_after_a_production_run(path):
    trace = open_trace(path)
    config = _l2(tlb_entries=4)
    want, _, _ = _run(config, trace)
    oracle = _sim(config, trace, make=reference_hierarchy)
    assert oracle.run_trace(trace) == want
    assert oracle.l1_calls == _n_blocks(trace)


def test_production_runs_after_an_oracle_run(path):
    trace = open_trace(path)
    config = _l2(tlb_entries=4)
    want = _sim(config, trace, make=reference_hierarchy).run_trace(trace)
    got, _, calls = _run(config, trace)
    assert got == want
    assert calls == _n_blocks(trace)


TENANTS = TenancyConfig(tid_bases=(0, 1), policy="way", quotas=(4, 4), ways=8)
VT = VtConfig(page_texels=16, max_resident_pages=8, max_in_flight=4)


@pytest.mark.parametrize(
    "config",
    [_l2(tlb_entries=4, tenancy=TENANTS), HierarchyConfig(l1=_l1(), vt=VT)],
    ids=["tenancy", "vt"],
)
def test_no_replay_for_tenancy_or_vt(config, path):
    trace = open_trace(path)
    _run(_l2(tlb_entries=4), trace)
    got, got_state, calls = _run(config, trace)
    assert calls == _n_blocks(trace)
    want, want_state = _computed(config, path)
    assert got == want
    assert_tree_equal(got_state, want_state)


def test_no_replay_for_a_checkpointed_run(path, tmp_path):
    trace = open_trace(path)
    config = _l2(tlb_entries=4)
    want, _, _ = _run(config, trace)
    got, _, calls = _run(
        config, trace, checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=2
    )
    assert calls == _n_blocks(trace)
    assert got == want


@pytest.mark.parametrize("warm_up", ["run_frame", "restore_state"])
def test_no_replay_for_a_warm_simulator(warm_up, path):
    """A record starts from a cold L1, so it serves only a fresh simulator."""
    config = _l2(tlb_entries=4)
    trace = open_trace(path)
    _run(config, trace)

    def warmed(t):
        sim = _sim(config, t)
        if warm_up == "run_frame":
            sim.run_frame(t.frames[3])
        else:
            donor = MultiLevelTextureCache(config, t.address_space)
            donor.run_frame(t.frames[3])
            sim.restore_state(donor.snapshot_state())
        sim.l1_calls = 0
        result = sim.run_trace(t)
        return result, sim.snapshot_state(), sim.l1_calls

    got, got_state, calls = warmed(trace)
    assert calls == _n_blocks(trace)
    want, want_state, _ = warmed(open_trace(path))
    assert got == want
    assert_tree_equal(got_state, want_state)


def test_no_replay_for_another_l1(path):
    trace = open_trace(path)
    _run(_l2(tlb_entries=4), trace)
    config = _l2(ways=4, tlb_entries=4)
    got, got_state, calls = _run(config, trace)
    assert calls == _n_blocks(trace)
    want, want_state = _computed(config, path)
    assert got == want
    assert_tree_equal(got_state, want_state)


def test_no_replay_in_another_address_space(path):
    trace = open_trace(path)
    config = _l2(tlb_entries=4)
    want, _, _ = _run(config, trace)
    sim = _sim(config, trace, space=AddressSpace(TEXTURES))
    assert sim.run_trace(trace) == want
    assert sim.l1_calls == _n_blocks(trace)


def test_no_record_of_an_in_ram_trace():
    """An in-RAM trace's arrays can change between runs: never recorded."""
    trace = _trace()
    config = _l2(tlb_entries=4)
    want, _, _ = _run(config, trace)
    assert hierarchy._l1_record is None
    got, _, calls = _run(config, trace)
    assert calls == _n_blocks(trace)
    assert got == want


def test_oversized_recording_is_dropped(path, monkeypatch):
    config = _l2(tlb_entries=4)
    want, want_state = _computed(config, path)
    assert hierarchy._l1_record is not None
    trace = open_trace(path)
    with monkeypatch.context() as m:
        # A budget the first frames' misses already exceed.
        m.setattr(type(trace), "map_budget", property(lambda t: 100))
        got, got_state, _ = _run(config, trace)
    assert got == want
    assert_tree_equal(got_state, want_state)
    assert hierarchy._l1_record is None
    got, _, calls = _run(config, trace)
    assert calls == _n_blocks(trace)
    assert got == want


def test_failed_run_leaves_no_record(path, tmp_path):
    _run(_l2(tlb_entries=4), open_trace(path))
    assert hierarchy._l1_record is not None
    damaged = tmp_path / "damaged.stream"
    save_stream(_trace(), damaged, chunk_refs=CHUNK_REFS)
    # Damage a chunk late in the stream, so earlier frames run first.
    chunk = damaged / "refs_00008.npy"
    raw = bytearray(chunk.read_bytes())
    raw[-1] ^= 0xFF
    chunk.write_bytes(bytes(raw))
    with pytest.raises(TraceCorruptionError):
        _run(_l2(tlb_entries=4), open_trace(damaged))
    assert hierarchy._l1_record is None
