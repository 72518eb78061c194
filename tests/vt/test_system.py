"""The per-frame VT engine: deadlines, faults, fallback, and state.

The central invariant under test: **a frame never blocks**. Whatever the
link does — 100% first-attempt kills, permanent drops, injected stalls,
page-store bitflips, a zero service budget — ``run_frame`` returns with
``stalls == 0`` and the quality penalty shows up in the degradation
counters instead.
"""

import numpy as np
import pytest

from repro.raster.feedback import page_requests
from repro.reliability.chaos import ChaosPolicy
from repro.reliability.faults import FaultModel
from repro.reliability.transfer import TransferPolicy
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace, pack_tile_refs
from repro.vt import FrameVtStats, VirtualTextureSystem, VtConfig

N_PAGES = 64  # mip-0 pages of the 128x128 texture at page_texels=16


def make_space():
    return AddressSpace([Texture("big", 128, 128), Texture("small", 32, 32)])


def full_pages(tid=0):
    """The visible pages of every mip-0 4x4 tile of the 128x128 texture
    (all 64 pages), as the feedback pass hands them to ``run_frame``."""
    ys, xs = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    refs = pack_tile_refs(tid, 0, ys.ravel(), xs.ravel(), check=False)
    return page_requests(refs, 16)


def make_config(**overrides):
    base = dict(
        page_texels=16,
        max_resident_pages=128,
        max_in_flight=128,
        frame_budget_us=100_000.0,
        fetch_latency_us=20.0,
        timeout_frames=4,
    )
    base.update(overrides)
    return VtConfig(**base)


class TestVtConfig:
    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            make_config(page_texels=24)
        with pytest.raises(ValueError):
            make_config(page_texels=2)

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            make_config(max_resident_pages=0)
        with pytest.raises(ValueError):
            make_config(max_in_flight=0)
        with pytest.raises(ValueError):
            make_config(timeout_frames=0)
        with pytest.raises(ValueError):
            make_config(frame_budget_us=-1.0)
        with pytest.raises(ValueError):
            make_config(fetch_latency_us=0.0)


class TestFrameVtStats:
    def test_degradation_metrics(self):
        clean = FrameVtStats()
        assert not clean.degraded and clean.mean_mip_bias == 0.0
        hit = FrameVtStats(degraded_pages=4, mip_bias_sum=10.0)
        assert hit.degraded and hit.mean_mip_bias == 2.5


class TestCleanStreaming:
    def test_generous_budget_pages_everything_first_frame(self):
        vt = VirtualTextureSystem(make_config(), make_space())
        stats = vt.run_frame(full_pages())
        assert stats.visible_pages == N_PAGES
        assert stats.completed_fetches == N_PAGES
        assert stats.fetched_bytes == N_PAGES * 16 * 16 * 4
        assert stats.degraded_pages == 0
        assert stats.stalls == 0
        assert stats.in_flight == 0

    def test_zero_budget_degrades_everything_without_blocking(self):
        vt = VirtualTextureSystem(make_config(frame_budget_us=0.0), make_space())
        stats = vt.run_frame(full_pages())
        assert stats.completed_fetches == 0
        assert stats.degraded_pages == stats.visible_pages == N_PAGES
        assert stats.mean_mip_bias > 0.0
        assert stats.stalls == 0  # never blocks, merely degrades

    def test_residency_bound_forces_evictions(self):
        # Room for only 16 streamable pages; paging in 64 must evict.
        config = make_config(max_resident_pages=18)  # 2 pinned + 16
        vt = VirtualTextureSystem(config, make_space())
        stats = vt.run_frame(full_pages())
        assert stats.evictions == N_PAGES - 16
        assert stats.resident_pages == 18

    def test_backpressure_defers_excess_requests(self):
        vt = VirtualTextureSystem(make_config(max_in_flight=4), make_space())
        stats = vt.run_frame(full_pages())
        assert stats.requested_pages == 4
        assert stats.deferred == N_PAGES - 4
        # Still-missing visible pages are simply re-requested next frame.
        again = vt.run_frame(full_pages())
        assert again.requested_pages == 4
        assert again.stalls == stats.stalls == 0


class TestFaultTolerance:
    def test_all_first_attempts_killed_still_stall_free(self):
        """The acceptance scenario: 100% first-attempt fetch faults."""
        config = make_config(
            policy=TransferPolicy(max_retries=2),
            chaos=ChaosPolicy(seed=7, kill_rate=1.0, max_attempt=1),
        )
        vt = VirtualTextureSystem(config, make_space())
        stats = vt.run_frame(full_pages())
        # Every page needed a retry, and every retry fit the budget.
        assert stats.failed_attempts == N_PAGES
        assert stats.completed_fetches == N_PAGES
        assert stats.degraded_pages == 0
        assert stats.stalls == 0
        assert stats.backoff_us > 0.0

    def test_permanent_drops_exhaust_retries_and_degrade(self):
        config = make_config(
            fault_model=FaultModel(drop_rate=1.0, seed=1),
            policy=TransferPolicy(max_retries=1),
        )
        vt = VirtualTextureSystem(config, make_space())
        frames = [vt.run_frame(full_pages()) for _ in range(3)]
        for stats in frames:
            assert stats.completed_fetches == 0
            assert stats.degraded_pages == stats.visible_pages
            assert stats.stalls == 0
        # attempts = max_retries + 1 per request, then the fetch is dropped.
        assert frames[0].failed_fetches == N_PAGES
        assert frames[0].failed_attempts == 2 * N_PAGES

    def test_slow_link_times_out_against_deadline(self):
        # One transfer costs 10 frame budgets but the deadline is 2 frames.
        config = make_config(
            frame_budget_us=100.0, fetch_latency_us=1000.0, timeout_frames=2
        )
        vt = VirtualTextureSystem(config, make_space())
        frames = [vt.run_frame(full_pages()) for _ in range(6)]
        assert sum(f.timed_out for f in frames) > 0
        for stats in frames:
            assert stats.completed_fetches == 0
            assert stats.service_us <= 100.0
            assert stats.stalls == 0

    def test_bitflip_scrub_quarantines_and_refetches(self):
        config = make_config(
            chaos=ChaosPolicy(seed=11, bitflip_rate=1.0)  # damage everything
        )
        vt = VirtualTextureSystem(config, make_space())
        first = vt.run_frame(full_pages())
        assert first.quarantined == 0  # nothing resident to damage yet
        second = vt.run_frame(full_pages())
        # Every unpinned resident page was damaged, quarantined, and — the
        # budget being generous — refetched within the same frame.
        assert second.quarantined == N_PAGES
        assert second.completed_fetches == N_PAGES
        assert second.degraded_pages == 0
        assert second.stalls == 0

    def test_mayhem_never_stalls_and_quantifies_penalty(self):
        """Drops + spikes + kills + stalls + bitflips, tight budget."""
        config = make_config(
            max_in_flight=16,
            frame_budget_us=400.0,
            fault_model=FaultModel(
                drop_rate=0.3, spike_rate=0.5, spike_us=300.0, seed=3
            ),
            policy=TransferPolicy(max_retries=2, backoff_base_us=50.0),
            chaos=ChaosPolicy(
                seed=5,
                kill_rate=0.5,
                stall_rate=0.3,
                stall_s=0.0003,
                max_attempt=1,
                bitflip_rate=0.1,
            ),
        )
        vt = VirtualTextureSystem(config, make_space())
        frames = [vt.run_frame(full_pages()) for _ in range(10)]
        assert all(f.stalls == 0 for f in frames)  # stall-free rate 1.0
        assert sum(f.degraded_pages for f in frames) > 0
        assert sum(f.completed_fetches for f in frames) > 0
        assert sum(f.quarantined for f in frames) > 0
        # Deterministic: the identical config replays the identical run.
        replay = VirtualTextureSystem(config, make_space())
        assert [replay.run_frame(full_pages()) for _ in range(10)] == frames


def canon(node):
    """Snapshot trees with ndarrays, reduced to comparable plain data."""
    if isinstance(node, np.ndarray):
        return (node.dtype.str, node.tolist())
    if isinstance(node, dict):
        return {k: canon(v) for k, v in node.items()}
    return node


class TestSnapshotRestore:
    def chaotic_config(self):
        return make_config(
            max_in_flight=8,
            frame_budget_us=300.0,
            fault_model=FaultModel(
                drop_rate=0.25, spike_rate=0.3, spike_us=200.0, seed=9
            ),
            policy=TransferPolicy(max_retries=2, backoff_base_us=40.0),
            chaos=ChaosPolicy(
                seed=13, kill_rate=0.6, max_attempt=1, bitflip_rate=0.15
            ),
        )

    @pytest.mark.parametrize("boundary", [1, 3, 5])
    def test_restore_resumes_bit_identically(self, boundary):
        config = self.chaotic_config()
        space = make_space()
        pages = full_pages()

        baseline = VirtualTextureSystem(config, space)
        expected = [baseline.run_frame(pages) for _ in range(7)]

        first = VirtualTextureSystem(config, space)
        head = [first.run_frame(pages) for _ in range(boundary)]
        state = first.snapshot_state()

        second = VirtualTextureSystem(config, space)
        second.restore_state(state)
        tail = [second.run_frame(pages) for _ in range(7 - boundary)]

        assert head + tail == expected
        assert canon(second.snapshot_state()) == canon(baseline.snapshot_state())

    def test_snapshot_carries_inflight_queue_and_rng(self):
        config = self.chaotic_config()
        vt = VirtualTextureSystem(config, make_space())
        vt.run_frame(full_pages())
        state = vt.snapshot_state()
        assert state["frame"] == 1
        assert len(state["streamer"]["page"]) == len(vt.streamer)
        assert "rng_state" in state["streamer"]  # the fault RNG mid-stream
        assert len(state["residency"]["pages"]) == len(vt.residency)
