"""Miss-ratio curves: hand cases plus exact agreement with the simulator."""

import numpy as np
import pytest

from repro.analytic.mrc import (
    PAPER_L1_SIZES,
    full_mrc,
    l1_hit_mask,
    l1_mrc_sweep,
    l2_block_mrc,
    mrc_from_distances,
)
from repro.core.l1_cache import L1CacheConfig, L1CacheSim
from repro.core.l2_cache import L2CacheConfig


class TestFullMrc:
    def test_hand_stream(self):
        # A B A A C B -> distances [-1, -1, 1, 0, -1, 2], 3 cold misses.
        stream = np.array([1, 2, 1, 1, 3, 2])
        curve = full_mrc(stream, [1, 2, 3])
        assert curve.accesses == 6
        assert curve.cold == 3
        assert curve.misses.tolist() == [5, 4, 3]
        assert curve.miss_ratios.tolist() == [5 / 6, 4 / 6, 3 / 6]

    def test_monotone_in_capacity(self):
        rng = np.random.default_rng(1)
        stream = rng.integers(0, 50, size=2000)
        curve = full_mrc(stream, [1, 2, 4, 8, 16, 32, 64])
        assert (np.diff(curve.misses) <= 0).all()

    def test_large_capacity_leaves_cold_only(self):
        stream = np.array([3, 1, 3, 1, 3])
        curve = full_mrc(stream, [100])
        assert curve.misses.tolist() == [2]

    def test_empty_stream(self):
        curve = full_mrc(np.array([], dtype=np.int64), [4])
        assert curve.accesses == 0
        assert curve.misses.tolist() == [0]
        assert curve.miss_ratios.tolist() == [0.0]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            mrc_from_distances(np.array([0, 1]), [0])

    def test_hash_sampled_close_to_exact(self):
        rng = np.random.default_rng(2)
        stream = rng.integers(0, 400, size=40000)
        caps = [8, 64, 256]
        exact = full_mrc(stream, caps).miss_ratios
        sampled = full_mrc(stream, caps, sample=0.5).miss_ratios
        assert np.abs(exact - sampled).max() < 0.05


class TestL1Sweep:
    @pytest.mark.parametrize("ways", [1, 2, 4])
    def test_exact_sweep_matches_simulator(self, micro_trace_tri, ways):
        trace = micro_trace_tri
        sizes = [2 * 1024, 8 * 1024]
        sweep = l1_mrc_sweep(trace, sizes, ways=ways)
        for size in sizes:
            sim = L1CacheSim(L1CacheConfig(size_bytes=size, ways=ways))
            space = trace.address_space
            misses = 0
            frame_misses = []
            for frame in trace.frames:
                sets = space.l1_set_indices(frame.refs, sim.config.n_sets)
                res = sim.access_frame(frame.refs, frame.weights, sets)
                misses += res.misses
                frame_misses.append(res.misses)
            point = sweep[size]
            assert point.misses == misses
            assert point.frame_misses.tolist() == frame_misses
            assert point.texel_reads == trace.total_texel_reads()

    def test_monotone_in_size(self, micro_trace):
        sweep = l1_mrc_sweep(micro_trace, PAPER_L1_SIZES)
        rates = [sweep[s].miss_rate for s in PAPER_L1_SIZES]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_sampled_close_to_exact(self, micro_trace):
        sizes = [2 * 1024, 32 * 1024]
        exact = l1_mrc_sweep(micro_trace, sizes)
        sampled = l1_mrc_sweep(micro_trace, sizes, sample=0.25)
        for s in sizes:
            assert abs(exact[s].miss_rate - sampled[s].miss_rate) < 0.005

    def test_rejects_bad_sample(self, micro_trace):
        with pytest.raises(ValueError):
            l1_mrc_sweep(micro_trace, [2048], sample=0.0)


class TestL1HitMask:
    def test_complement_is_the_sim_miss_stream(self, micro_trace):
        trace = micro_trace
        config = L1CacheConfig(size_bytes=2 * 1024)
        sim = L1CacheSim(config)
        space = trace.address_space
        sim_miss_refs = []
        for frame in trace.frames:
            sets = space.l1_set_indices(frame.refs, config.n_sets)
            sim_miss_refs.append(
                sim.access_frame(frame.refs, frame.weights, sets).miss_refs
            )
        sim_miss_refs = np.concatenate(sim_miss_refs)
        refs = np.concatenate([f.refs for f in trace.frames])
        analytic = refs[~l1_hit_mask(trace, config)]
        assert np.array_equal(analytic, sim_miss_refs)

    @pytest.mark.parametrize("ways", [1, 2])
    @pytest.mark.parametrize("n_sets", [1, 16, 128])
    def test_equals_sim_miss_stream_per_geometry(self, micro_trace_tri, ways, n_sets):
        # One kernel serves both layers: the cold analytic pass over the
        # whole animation is the simulator's frame-by-frame miss stream.
        trace = micro_trace_tri
        config = L1CacheConfig(size_bytes=n_sets * ways * 64, ways=ways)
        sim = L1CacheSim(config)
        space = trace.address_space
        sim_miss_refs = np.concatenate(
            [
                sim.access_frame(
                    f.refs, f.weights, space.l1_set_indices(f.refs, config.n_sets)
                ).miss_refs
                for f in trace.frames
            ]
        )
        refs = np.concatenate([f.refs for f in trace.frames])
        assert np.array_equal(refs[~l1_hit_mask(trace, config)], sim_miss_refs)


class TestL2BlockMrc:
    def test_block_residency_bounded_and_monotone(self, micro_trace_tri):
        caps = [16, 64, 256]
        curve = l2_block_mrc(micro_trace_tri, 2 * 1024, caps)
        assert (np.diff(curve.misses) <= 0).all()
        assert (curve.hit_ratios >= 0).all() and (curve.hit_ratios <= 1).all()

    def test_capacity_at_config_blocks(self, micro_trace_tri):
        cfg = L2CacheConfig(size_bytes=256 * 1024)
        curve = l2_block_mrc(micro_trace_tri, 2 * 1024, [cfg.n_blocks])
        assert curve.capacities.tolist() == [cfg.n_blocks]
