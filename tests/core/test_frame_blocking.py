"""Block invariance of :meth:`MultiLevelTextureCache.run_frame`.

A frame runs set index → L1 → L2 translation → TLB → L2 in blocks of
``hierarchy.FRAME_BLOCK`` refs. Every stage carries its state across calls
and is invariant to call chunking, so any block size must give the same
per-frame stats and the same end-of-trace state as the default, whose
blocks hold each of these frames whole.
"""

import numpy as np
import pytest

from repro.core import hierarchy
from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.reliability.faults import FaultModel
from repro.reliability.transfer import TransferPolicy
from repro.tenancy import TenancyConfig
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace, pack_tile_refs
from repro.trace.trace import FrameTrace, Trace, TraceMeta
from repro.vt import VtConfig

# Longer than the 4096 block, one empty frame, one shorter than 64 refs.
FRAME_LENGTHS = (4500, 0, 37, 1200)


def blocked_trace(space, seed=5):
    """Random walks over a 4x4-tile window of every texture and MIP 0-2."""
    rng = np.random.default_rng(seed)
    frames = []
    for n in FRAME_LENGTHS:
        # The texture and MIP level change every 50 refs.
        tid = np.repeat(rng.integers(space.texture_count, size=n // 50 + 1), 50)[:n]
        mip = np.repeat(rng.integers(3, size=n // 50 + 1), 50)[:n]
        pos = np.cumsum(rng.integers(-1, 2, size=(n, 2)), axis=0)
        refs = pack_tile_refs(tid, mip, np.mod(pos[:, 1], 4), np.mod(pos[:, 0], 4))
        weights = rng.integers(1, 5, size=n).astype(np.int64)
        frames.append(FrameTrace(refs, weights, int(weights.sum())))
    meta = TraceMeta("blocked", 16, 16, "point", len(frames))
    return Trace(meta=meta, frames=frames, textures=space.textures)


def _l2(**overrides):
    return dict(
        l1=L1CacheConfig(size_bytes=2048),
        l2=L2CacheConfig(size_bytes=8 * 1024, l2_tile_texels=16),
        **overrides,
    )


CONFIGS = {
    "pull": HierarchyConfig(l1=L1CacheConfig(size_bytes=2048)),
    "l1-4way": HierarchyConfig(l1=L1CacheConfig(size_bytes=2048, ways=4)),
    "l2-tlb-round-robin": HierarchyConfig(**_l2(tlb_entries=4)),
    "l2-tlb-lru": HierarchyConfig(**_l2(tlb_entries=4, tlb_policy="lru")),
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
    "tenants-shared": HierarchyConfig(
        **_l2(tlb_entries=4, tenancy=TenancyConfig(tid_bases=(0, 1)))
    ),
    "tenants-way": HierarchyConfig(
        **_l2(
            tlb_entries=4,
            tenancy=TenancyConfig(
                tid_bases=(0, 1), policy="way", quotas=(4, 4)
            ),
        )
    ),
}


def assert_tree_equal(a, b):
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_tree_equal(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_tree_equal(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


def simulate(config, space, trace):
    sim = MultiLevelTextureCache(config, space)
    return sim.run_trace(trace).frames, sim.snapshot_state()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_any_block_size_matches_the_default(name, monkeypatch):
    config = CONFIGS[name]
    space = AddressSpace(
        [Texture("a", 64, 64), Texture("b", 128, 64), Texture("c", 128, 128)]
    )
    trace = blocked_trace(space)
    assert max(FRAME_LENGTHS) < hierarchy.FRAME_BLOCK
    want_frames, want_state = simulate(config, space, trace)
    assert want_frames[0].l1_misses > 0
    if config.l2 is not None:
        assert sum(f.l2.evictions for f in want_frames) > 0
    for block in (1, 7, 64, 4096):
        monkeypatch.setattr(hierarchy, "FRAME_BLOCK", block)
        frames, state = simulate(config, space, trace)
        assert frames == want_frames, f"FRAME_BLOCK={block}"
        assert_tree_equal(state, want_state)
