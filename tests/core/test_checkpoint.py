"""Checkpointed simulation: snapshot/restore and the on-disk format.

The load-bearing claim is bit-identity: a run interrupted at any frame
boundary and resumed from its checkpoint must produce exactly the frames —
and exactly the simulation-store bytes — of an uninterrupted run, for every
replacement policy, and with the faulty-link RNG mid-stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.errors import CheckpointCorruptError, CorruptCheckpointWarning
from repro.reliability import checkpoint as ckpt
from repro.reliability.chaos import ChaosPolicy, corrupt_file
from repro.reliability.faults import FaultModel
from repro.reliability.transfer import TransferPolicy
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace, pack_tile_refs
from repro.trace.trace import FrameTrace, Trace, TraceMeta
from repro.vt import VtConfig

N_FRAMES = 6


def make_space():
    return AddressSpace([Texture("a", 64, 64), Texture("b", 128, 128)])


def random_trace(space, seed, n_frames=N_FRAMES, refs_per_frame=150):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n_frames):
        tid = int(rng.integers(space.texture_count))
        tex = space.textures[tid]
        mip = int(rng.integers(min(3, tex.level_count)))
        w, h = tex.level_dims(mip)
        tw, th = max(w // 4, 1), max(h // 4, 1)
        steps = rng.integers(-1, 2, size=(refs_per_frame, 2))
        pos = np.cumsum(steps, axis=0)
        refs = pack_tile_refs(
            tid, mip, np.mod(pos[:, 1], th), np.mod(pos[:, 0], tw), check=False
        )
        frames.append(
            FrameTrace(refs, np.ones(len(refs), dtype=np.int64), len(refs))
        )
    meta = TraceMeta("ckpt-prop", 16, 16, "point", n_frames)
    return Trace(meta=meta, frames=frames, textures=space.textures)


def make_vt_config():
    """A small paged config exercising every VT state carrier: residency
    churn, in-flight banking, retries, chaos kills/stalls, and page-store
    bitflips (quarantine + refetch)."""
    return VtConfig(
        page_texels=16,
        max_resident_pages=24,
        max_in_flight=4,
        frame_budget_us=400.0,
        fetch_latency_us=30.0,
        timeout_frames=2,
        fault_model=FaultModel(drop_rate=0.25, spike_rate=0.2, spike_us=50.0, seed=5),
        policy=TransferPolicy(max_retries=2, backoff_base_us=20.0),
        chaos=ChaosPolicy(
            seed=3,
            kill_rate=0.6,
            stall_rate=0.2,
            stall_s=0.0001,
            max_attempt=1,
            bitflip_rate=0.05,
        ),
    )


def make_config(policy, faulty, vt=False):
    return HierarchyConfig(
        l1=L1CacheConfig(size_bytes=2048),
        l2=L2CacheConfig(size_bytes=32 * 1024, l2_tile_texels=16, policy=policy),
        tlb_entries=4,
        fault_model=FaultModel(drop_rate=0.05, seed=9) if faulty else None,
        transfer_policy=TransferPolicy(max_retries=2) if faulty else None,
        vt=make_vt_config() if vt else None,
    )


class TestSnapshotRestoreProperty:
    @pytest.mark.parametrize("policy", ["clock", "lru", "fifo", "random"])
    @given(
        seed=st.integers(0, 10_000),
        boundary=st.integers(1, N_FRAMES - 1),
        faulty=st.booleans(),
        vt=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_resume_at_any_boundary_is_bit_identical(
        self, policy, seed, boundary, faulty, vt
    ):
        space = make_space()
        trace = random_trace(space, seed)
        config = make_config(policy, faulty, vt)
        expected = MultiLevelTextureCache(config, space).run_trace(trace)

        first = MultiLevelTextureCache(config, space)
        head = [first.run_frame(f) for f in trace.frames[:boundary]]
        state = first.snapshot_state()

        # A brand-new simulator restored from the snapshot must continue
        # exactly where the first one stopped.
        second = MultiLevelTextureCache(config, space)
        second.restore_state(state)
        tail = [second.run_frame(f) for f in trace.frames[boundary:]]
        assert head + tail == expected.frames

    @given(
        seed=st.integers(0, 10_000),
        boundary=st.integers(1, N_FRAMES - 1),
        vt=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_snapshot_round_trips_through_disk(
        self, tmp_path_factory, seed, boundary, vt
    ):
        space = make_space()
        trace = random_trace(space, seed)
        config = make_config("clock", faulty=True, vt=vt)
        path = tmp_path_factory.mktemp("ckpt") / "run.ckpt"

        sim = MultiLevelTextureCache(config, space)
        frames = [sim.run_frame(f) for f in trace.frames[:boundary]]
        key = ckpt.run_key(trace, config)
        ckpt.write_checkpoint(
            path,
            key=key,
            frame_index=boundary,
            n_frames=N_FRAMES,
            frames=frames,
            state=sim.snapshot_state(),
        )

        resumed = MultiLevelTextureCache(config, space).run_trace(
            trace, checkpoint_path=path, resume=True
        )
        expected = MultiLevelTextureCache(config, space).run_trace(trace)
        assert resumed.frames == expected.frames


class TestRunTraceCheckpointing:
    def test_run_trace_writes_and_resumes_from_checkpoint(self, tmp_path):
        space = make_space()
        trace = random_trace(space, seed=1)
        config = make_config("lru", faulty=False)
        path = tmp_path / "run.ckpt"

        full = MultiLevelTextureCache(config, space).run_trace(
            trace, checkpoint_path=path, checkpoint_every=2
        )
        # The last intermediate checkpoint (frame 4 of 6) is still on disk;
        # resuming replays only the tail and must agree exactly.
        loaded = ckpt.read_checkpoint(
            path, expected_key=ckpt.run_key(trace, config)
        )
        assert loaded.frame_index == 4
        assert loaded.frames == full.frames[:4]

        resumed = MultiLevelTextureCache(config, space).run_trace(
            trace, checkpoint_path=path, resume=True
        )
        assert resumed.frames == full.frames

    def test_resumed_run_produces_identical_store_bytes(self, tmp_path, monkeypatch):
        from repro.experiments import simstore

        space = make_space()
        trace = random_trace(space, seed=2)
        config = make_config("clock", faulty=True)
        path = tmp_path / "run.ckpt"

        full = MultiLevelTextureCache(config, space).run_trace(
            trace, checkpoint_path=path, checkpoint_every=3
        )
        resumed = MultiLevelTextureCache(config, space).run_trace(
            trace, checkpoint_path=path, resume=True
        )

        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "a"))
        path_a = simstore.save(trace, config, full)
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "b"))
        path_b = simstore.save(trace, config, resumed)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_checkpoint_writes_are_byte_deterministic(self, tmp_path):
        space = make_space()
        trace = random_trace(space, seed=3)
        config = make_config("fifo", faulty=False)
        sim = MultiLevelTextureCache(config, space)
        frames = [sim.run_frame(f) for f in trace.frames[:2]]
        kwargs = dict(
            key=ckpt.run_key(trace, config),
            frame_index=2,
            n_frames=N_FRAMES,
            frames=frames,
            state=sim.snapshot_state(),
        )
        a = ckpt.write_checkpoint(tmp_path / "a.ckpt", **kwargs)
        b = ckpt.write_checkpoint(tmp_path / "b.ckpt", **kwargs)
        assert a.read_bytes() == b.read_bytes()


class TestDamageHandling:
    def _written(self, tmp_path):
        space = make_space()
        trace = random_trace(space, seed=4)
        config = make_config("clock", faulty=False)
        sim = MultiLevelTextureCache(config, space)
        frames = [sim.run_frame(f) for f in trace.frames[:3]]
        key = ckpt.run_key(trace, config)
        path = ckpt.write_checkpoint(
            tmp_path / "run.ckpt",
            key=key,
            frame_index=3,
            n_frames=N_FRAMES,
            frames=frames,
            state=sim.snapshot_state(),
        )
        return trace, config, key, path

    @pytest.mark.parametrize("mode", ["bitflip", "truncate"])
    def test_corrupt_checkpoint_quarantined_on_tolerant_load(self, tmp_path, mode):
        trace, config, key, path = self._written(tmp_path)
        corrupt_file(path, seed=5, mode=mode)
        with pytest.raises(CheckpointCorruptError):
            ckpt.read_checkpoint(path, expected_key=key)
        with pytest.warns(CorruptCheckpointWarning):
            assert ckpt.load_checkpoint(path, expected_key=key) is None
        assert not path.exists()
        assert list((tmp_path / "quarantine").iterdir())

    def test_corrupt_checkpoint_restarts_run_from_scratch(self, tmp_path):
        space = make_space()
        trace, config, key, path = self._written(tmp_path)
        corrupt_file(path, seed=6)
        with pytest.warns(CorruptCheckpointWarning):
            result = MultiLevelTextureCache(config, space).run_trace(
                trace, checkpoint_path=path, resume=True
            )
        expected = MultiLevelTextureCache(config, space).run_trace(trace)
        assert result.frames == expected.frames

    def test_key_mismatch_raises_even_on_tolerant_load(self, tmp_path):
        trace, config, key, path = self._written(tmp_path)
        with pytest.raises(CheckpointCorruptError):
            ckpt.load_checkpoint(path, expected_key=key + "|other")
        assert path.exists()  # a caller error is not bit rot: nothing moved

    def test_missing_checkpoint_loads_as_none(self, tmp_path):
        assert ckpt.load_checkpoint(tmp_path / "absent.ckpt") is None


class TestMalformedStateTree:
    """A state tree of the wrong shape raises the typed mismatch error."""

    def _state(self):
        space = make_space()
        sim = MultiLevelTextureCache(make_config("clock", faulty=False), space)
        sim.run_frame(random_trace(space, seed=2).frames[0])
        return space, sim.snapshot_state()

    def test_partitioned_tlb_tree_is_rejected(self):
        space, state = self._state()
        state["tlb"] = {"parts": [state["tlb"], state["tlb"]]}
        sim = MultiLevelTextureCache(make_config("clock", faulty=False), space)
        with pytest.raises(ValueError, match="does not match the configuration.*'tlb'"):
            sim.restore_state(state)

    def test_l1_tree_without_mru_is_rejected(self):
        space, state = self._state()
        del state["l1"]["mru"]
        sim = MultiLevelTextureCache(make_config("clock", faulty=False), space)
        with pytest.raises(ValueError, match="does not match the configuration.*'l1'"):
            sim.restore_state(state)
