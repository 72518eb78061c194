"""Checkpoint format v3: tenant columns, partitioned state, old versions rejected."""

import numpy as np
import pytest

from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.errors import CheckpointCorruptError, CorruptCheckpointWarning
from repro.reliability import checkpoint as ckpt
from repro.tenancy import TenancyConfig, merge_traces

L2 = L2CacheConfig(size_bytes=64 * 1024, l2_tile_texels=16)


def _config(tenancy=None):
    return HierarchyConfig(
        l1=L1CacheConfig(size_bytes=2048),
        l2=L2,
        tlb_entries=8,
        tenancy=tenancy,
    )


@pytest.fixture(scope="module")
def merged_pair(village_trace, city_trace):
    return merge_traces([village_trace, city_trace], schedule="rr", seed=0)


def _way_config(bases):
    return _config(
        TenancyConfig(
            tid_bases=bases,
            policy="way",
            quotas=(4, 4),
            ways=8,
        )
    )


class TestTenancyCheckpointing:
    def test_resume_is_bit_identical(self, merged_pair, tmp_path):
        merged, bases = merged_pair
        config = _way_config(bases)
        plain = MultiLevelTextureCache(
            config, merged.address_space
        ).run_trace(merged)

        path = tmp_path / "tenancy.ckpt"
        checkpointed = MultiLevelTextureCache(
            config, merged.address_space
        ).run_trace(merged, checkpoint_path=path, checkpoint_every=1)
        assert checkpointed.frames == plain.frames

        # The last intermediate checkpoint is on disk; resuming replays
        # only the tail and must agree exactly, tenant vectors included.
        loaded = ckpt.read_checkpoint(path)
        assert 0 < loaded.frame_index < len(merged.frames)
        assert loaded.frames == plain.frames[: loaded.frame_index]
        resumed = MultiLevelTextureCache(
            config, merged.address_space
        ).run_trace(
            merged, checkpoint_path=path, checkpoint_every=1, resume=True
        )
        assert resumed.frames == plain.frames

    def test_tenant_columns_round_trip(self, merged_pair, tmp_path):
        merged, bases = merged_pair
        config = _config(TenancyConfig(tid_bases=bases))
        sim = MultiLevelTextureCache(config, merged.address_space)
        frames = [sim.run_frame(f) for f in merged.frames]
        path = tmp_path / "cols.ckpt"
        ckpt.write_checkpoint(
            path,
            key="k",
            frame_index=len(frames),
            n_frames=len(frames),
            frames=frames,
            state=sim.snapshot_state(),
        )
        loaded = ckpt.read_checkpoint(path, expected_key="k")
        assert loaded.frames == frames
        assert np.array_equal(
            loaded.frames[0].tenants.texel_reads, frames[0].tenants.texel_reads
        )

    def test_partitioned_state_snapshot_round_trips(self, merged_pair):
        merged, bases = merged_pair
        config = _way_config(bases)
        warm = MultiLevelTextureCache(config, merged.address_space)
        warm.run_frame(merged.frames[0])
        state = warm.snapshot_state()
        assert len(state["l2"]["parts"]) == 2

        cold = MultiLevelTextureCache(config, merged.address_space)
        cold.restore_state(state)
        a = warm.run_frame(merged.frames[1])
        b = cold.run_frame(merged.frames[1])
        assert a == b

    def test_partition_state_tenant_count_mismatch_rejected(self, merged_pair):
        merged, bases = merged_pair
        config = _way_config(bases)
        warm = MultiLevelTextureCache(config, merged.address_space)
        state = warm.snapshot_state()
        state["l2"]["parts"] = state["l2"]["parts"][:1]
        with pytest.raises(ValueError, match="tenant count"):
            MultiLevelTextureCache(
                config, merged.address_space
            ).restore_state(state)


class TestBackCompat:
    def test_v2_checkpoint_rejected(self, village_trace, tmp_path, monkeypatch):
        config = _config()
        sim = MultiLevelTextureCache(config, village_trace.address_space)
        frames = [sim.run_frame(village_trace.frames[0])]
        key3 = ckpt.run_key(village_trace, config)
        assert key3.startswith("ckpt3|")
        assert "|batched|" in key3
        assert key3.endswith(", tenancy=None)")

        # Forge the file a pre-tenancy build would have written: layout
        # version 2, and a run key whose embedded config repr predates the
        # tenancy field.
        legacy_key = "ckpt2|" + key3[len("ckpt3|"):]
        legacy_key = legacy_key[: -len(", tenancy=None)")] + ")"
        path = tmp_path / "legacy.ckpt"
        monkeypatch.setattr(ckpt, "CHECKPOINT_VERSION", 2)
        ckpt.write_checkpoint(
            path,
            key=legacy_key,
            frame_index=1,
            n_frames=len(village_trace.frames),
            frames=frames,
            state=sim.snapshot_state(),
        )
        monkeypatch.undo()

        with pytest.raises(CheckpointCorruptError, match="unsupported version 2"):
            ckpt.read_checkpoint(path, expected_key=key3)
        # The tolerant loader quarantines it, so a resume restarts cleanly.
        with pytest.warns(CorruptCheckpointWarning):
            assert ckpt.load_checkpoint(path, expected_key=key3) is None
        assert not path.exists()

    def test_unsupported_version_rejected(self, village_trace, tmp_path, monkeypatch):
        config = _config()
        sim = MultiLevelTextureCache(config, village_trace.address_space)
        path = tmp_path / "v1.ckpt"
        monkeypatch.setattr(ckpt, "CHECKPOINT_VERSION", 1)
        ckpt.write_checkpoint(
            path,
            key="k",
            frame_index=0,
            n_frames=1,
            frames=[],
            state=sim.snapshot_state(),
        )
        monkeypatch.undo()
        with pytest.raises(CheckpointCorruptError, match="unsupported version"):
            ckpt.read_checkpoint(path)
