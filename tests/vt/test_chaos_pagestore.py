"""Chaos page-store bitflips mid-sweep: quarantine, refetch, converge.

Full hierarchy integration: a paged run whose chaos policy bit-flips
resident pages *while the sweep is running* must (a) quarantine and
refetch the damaged pages, (b) never stall a frame, (c) produce the same
frames on the oracle's per-access loops and the batched kernels, and (d)
converge byte-identically in the simulation store after a checkpoint
interrupt + resume — the bitflip schedule hashes the frame counter, so
resumption must restore it exactly.
"""

import numpy as np
import pytest

from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.reliability.chaos import ChaosPolicy
from repro.reliability.faults import FaultModel
from repro.reliability.transfer import TransferPolicy
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace, pack_tile_refs
from repro.trace.trace import FrameTrace, Trace, TraceMeta
from repro.vt import VtConfig

from tests.oracle import reference_hierarchy

N_FRAMES = 8


def make_space():
    return AddressSpace([Texture("a", 128, 128), Texture("b", 64, 64)])


def make_trace(space, seed=17, refs_per_frame=200):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(N_FRAMES):
        tid = int(rng.integers(space.texture_count))
        tex = space.textures[tid]
        w, h = tex.level_dims(0)
        refs = pack_tile_refs(
            tid,
            0,
            rng.integers(0, h // 4, size=refs_per_frame),
            rng.integers(0, w // 4, size=refs_per_frame),
            check=False,
        )
        frames.append(
            FrameTrace(refs, np.ones(len(refs), dtype=np.int64), len(refs))
        )
    meta = TraceMeta("vt-chaos", 16, 16, "point", N_FRAMES)
    return Trace(meta=meta, frames=frames, textures=space.textures)


def make_sim(config, space, reference):
    """The production hierarchy, or every level on its oracle loop."""
    if reference:
        return reference_hierarchy(config, space)
    return MultiLevelTextureCache(config, space)


def make_config():
    """Paged hierarchy with aggressive page-store damage mid-sweep."""
    return HierarchyConfig(
        l1=L1CacheConfig(size_bytes=2048),
        l2=L2CacheConfig(size_bytes=32 * 1024, l2_tile_texels=16),
        tlb_entries=4,
        vt=VtConfig(
            page_texels=16,
            max_resident_pages=48,
            max_in_flight=8,
            frame_budget_us=600.0,
            fetch_latency_us=25.0,
            timeout_frames=3,
            fault_model=FaultModel(
                drop_rate=0.2, spike_rate=0.3, spike_us=150.0, seed=21
            ),
            policy=TransferPolicy(max_retries=2, backoff_base_us=30.0),
            chaos=ChaosPolicy(
                seed=19, kill_rate=0.4, max_attempt=1, bitflip_rate=0.25
            ),
        ),
    )


class TestBitflipMidSweep:
    @pytest.mark.parametrize("reference", [True, False], ids=["ref", "batched"])
    def test_quarantines_refetches_and_never_stalls(self, reference):
        space = make_space()
        result = make_sim(make_config(), space, reference).run_trace(
            make_trace(space)
        )
        # The chaos schedule actually bit: pages were damaged and healed.
        assert result.total_page_quarantines > 0
        assert result.total_page_fetches > 0
        assert result.total_pages_degraded > 0
        assert result.stall_free_rate == 1.0

    def test_engines_agree_bit_identically(self):
        space = make_space()
        trace = make_trace(space)
        config = make_config()
        ref = reference_hierarchy(config, space).run_trace(trace)
        batched = MultiLevelTextureCache(config, space).run_trace(trace)
        assert ref.frames == batched.frames

    @pytest.mark.parametrize("reference", [True, False], ids=["ref", "batched"])
    def test_interrupted_run_converges_byte_identically(
        self, tmp_path, monkeypatch, reference
    ):
        from repro.experiments import simstore

        space = make_space()
        trace = make_trace(space)
        config = make_config()
        path = tmp_path / "vt.ckpt"

        full = make_sim(config, space, reference).run_trace(
            trace, checkpoint_path=path, checkpoint_every=3
        )
        # The checkpoint at frame 6 is on disk; a fresh process resumes the
        # tail. Frame counter, residency, in-flight queue, and RNG must all
        # restore for the bitflip schedule to line up again.
        resumed = make_sim(config, space, reference).run_trace(
            trace, checkpoint_path=path, resume=True
        )
        assert resumed.frames == full.frames
        assert full.total_page_quarantines > 0

        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "a"))
        path_a = simstore.save(trace, config, full)
        monkeypatch.setenv("REPRO_SIM_CACHE", str(tmp_path / "b"))
        path_b = simstore.save(trace, config, resumed)
        assert path_a.read_bytes() == path_b.read_bytes()
