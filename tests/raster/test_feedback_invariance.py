"""Properties of the VT feedback pass's visible pages.

The VT feedback pass computes the visible pages per frame. Merging tenant
streams only reorders (and retags) accesses — it must never change which
pages each tenant touches, for any schedule, seed, or chunk size. And the
hierarchy builds a frame's pages block by block: the blocks' requests,
merged in first-touch order, must be the whole frame's, order included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hierarchy
from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.experiments.config import Scale
from repro.experiments.traces import get_trace
from repro.raster.feedback import first_touch, page_requests
from repro.tenancy import SCHEDULES, merge_traces
from repro.tenancy.address import tag_refs
from repro.texture.sampler import FilterMode
from repro.vt import VirtualTextureSystem, VtConfig
from tests.core.test_frame_blocking import assert_tree_equal

MICRO = Scale(width=64, height=48, frames=2, detail=0.2, name="micro")

PAGE_TEXELS = 64


def _pages(refs):
    return set(page_requests(refs, PAGE_TEXELS).tolist())


@settings(max_examples=25)
@given(
    schedule=st.sampled_from(SCHEDULES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    chunk=st.integers(min_value=1, max_value=2048),
)
def test_page_set_invariant_under_interleaving(schedule, seed, chunk):
    traces = [
        get_trace("village", MICRO, FilterMode.POINT),
        get_trace("city", MICRO, FilterMode.POINT),
    ]
    merged, bases = merge_traces(
        traces,
        schedule=schedule,
        weights=[2.0, 1.0] if schedule != "rr" else None,
        seed=seed,
        chunk_refs=chunk,
    )
    for f in range(merged.meta.n_frames):
        per_tenant = set()
        for t, trace in enumerate(traces):
            per_tenant |= _pages(tag_refs(trace.frames[f].refs, bases[t]))
        assert _pages(merged.frames[f].refs) == per_tenant


@settings(max_examples=25)
@given(block=st.integers(min_value=1, max_value=4096))
def test_block_page_requests_merge_to_the_frame_in_first_touch_order(block):
    """What the hierarchy's blocked feedback pass relies on."""
    refs = get_trace("city", MICRO, FilterMode.POINT).frames[0].refs
    parts = [
        page_requests(refs[i : i + block], PAGE_TEXELS)
        for i in range(0, len(refs), block)
    ]
    merged = first_touch(np.concatenate(parts))
    whole = page_requests(refs, PAGE_TEXELS)
    assert merged.tolist() == whole.tolist()
    assert whole.tolist() != sorted(whole.tolist())  # the order is tested


def test_blocked_vt_run_pages_the_whole_frame_requests(monkeypatch):
    """At any ``FRAME_BLOCK`` the hierarchy's VT engine gets exactly the
    whole frame's ``page_requests``, in order: a config whose streamer
    defers pages makes the stats depend on that order."""
    trace = get_trace("city", MICRO, FilterMode.POINT)
    vt = VtConfig(page_texels=16, max_resident_pages=24, max_in_flight=4)
    engine = VirtualTextureSystem(vt, trace.address_space)
    want = [
        engine.run_frame(page_requests(f.refs, vt.page_texels))
        for f in trace.frames
    ]
    assert sum(s.deferred for s in want) > 0
    config = HierarchyConfig(l1=L1CacheConfig(size_bytes=2048), vt=vt)
    for block in (1, 7, 64, hierarchy.FRAME_BLOCK):
        monkeypatch.setattr(hierarchy, "FRAME_BLOCK", block)
        sim = MultiLevelTextureCache(config, trace.address_space)
        assert [f.vt for f in sim.run_trace(trace).frames] == want, block
        assert_tree_equal(sim.vt.snapshot_state(), engine.snapshot_state())
