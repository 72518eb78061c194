"""Miss-ratio curves: hand cases plus exact agreement with the per-access
reference L1 (``tests/oracle``), on a trace whose frames span chunks."""

import numpy as np
import pytest

from repro.analytic.belady import belady_l2, opt_l2_result
from repro.analytic.mrc import (
    PAPER_L1_SIZES,
    full_mrc,
    l1_miss_stream,
    l1_mrc_sweep,
    l2_block_mrc,
    mrc_from_distances,
)
from repro.core.l1_cache import L1CacheConfig, L1CacheSim
from repro.core.l2_cache import L2CacheConfig
from repro.trace.stream import _SpanFrame, open_trace, save_stream

from tests.oracle import ReferenceL1


@pytest.fixture(scope="module")
def spanning_tri(micro_trace_tri, tmp_path_factory):
    """The trilinear micro trace rewritten in small chunks, so every frame
    spans several chunks (and runs as several L1 blocks)."""
    path = tmp_path_factory.mktemp("spanning") / "tri.stream"
    save_stream(micro_trace_tri, path, chunk_refs=10_000)
    trace = open_trace(path)
    assert all(isinstance(f, _SpanFrame) for f in trace.frames)
    return trace


def _oracle_frames(trace, config, keep_stride=1, coarse_sets=1):
    """Per-frame results of the per-access reference L1, cold, over whole
    frames; with ``keep_stride > 1`` only over the refs in every
    ``keep_stride``-th set of a ``coarse_sets``-set geometry."""
    oracle = ReferenceL1(config)
    space = trace.address_space
    results = []
    for frame in trace.frames:
        refs, weights = frame.refs, frame.weights
        kept = (space.l1_tile_codes(refs) % coarse_sets) % keep_stride == 0
        refs, weights = refs[kept], weights[kept]
        sets = space.l1_set_indices(refs, config.n_sets)
        results.append(oracle.access_frame(refs, weights, sets))
    return results


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
    def test_exact_sweep_matches_simulator(self, spanning_tri, ways):
        # The reference is the per-access oracle, not L1CacheSim, which
        # the sweep itself runs.
        trace = spanning_tri
        sizes = [2 * 1024, 8 * 1024]
        sweep = l1_mrc_sweep(trace, sizes, ways=ways)
        for size in sizes:
            want = _oracle_frames(trace, L1CacheConfig(size_bytes=size, ways=ways))
            point = sweep[size]
            assert point.misses == sum(r.misses for r in want)
            assert point.frame_misses.tolist() == [r.misses for r in want]
            assert point.frame_reads.tolist() == [r.texel_reads for r in want]
            assert point.accesses == sum(r.accesses for r in want)
            assert point.texel_reads == trace.total_texel_reads()

    @pytest.mark.parametrize("ways", [1, 2, 4])
    @pytest.mark.parametrize("sample", [0.25, 0.125])
    def test_sampled_sweep_is_the_oracle_on_the_kept_sets(
        self, spanning_tri, sample, ways
    ):
        # Set sampling keeps every stride-th set of the coarsest geometry;
        # each size's point is then exact on that filtered stream.
        trace = spanning_tri
        sizes = [2 * 1024, 8 * 1024]
        sweep = l1_mrc_sweep(trace, sizes, ways=ways, sample=sample)
        coarse = L1CacheConfig(size_bytes=sizes[0], ways=ways).n_sets
        stride = coarse // round(coarse * sample)
        assert stride > 1
        for size in sizes:
            want = _oracle_frames(
                trace,
                L1CacheConfig(size_bytes=size, ways=ways),
                keep_stride=stride,
                coarse_sets=coarse,
            )
            point = sweep[size]
            assert point.frame_misses.tolist() == [r.misses for r in want]
            assert point.frame_reads.tolist() == [r.texel_reads for r in want]
            assert point.accesses == sum(r.accesses for r in want)
            assert point.texel_reads == sum(r.texel_reads for r in want)

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
    """The L1's hit/miss split: its miss side, ``l1_miss_stream``, is the
    input of every L2 model."""

    def test_complement_is_the_sim_miss_stream(self, micro_trace):
        # The refs the L1 does not hit, read block by block, are the refs
        # a whole-frame L1CacheSim run reports as misses.
        trace = micro_trace
        config = L1CacheConfig(size_bytes=2 * 1024)
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
        assert np.array_equal(
            l1_miss_stream(trace, config.size_bytes, config.ways), sim_miss_refs
        )

    @pytest.mark.parametrize("ways", [1, 2])
    @pytest.mark.parametrize("n_sets", [1, 16, 128])
    def test_equals_sim_miss_stream_per_geometry(self, spanning_tri, ways, n_sets):
        # The L2 models' input is the oracle L1's miss stream, and
        # l2_block_mrc and opt_l2_result consume exactly that stream.
        trace = spanning_tri
        space = trace.address_space
        config = L1CacheConfig(size_bytes=n_sets * ways * 64, ways=ways)
        want = np.concatenate([r.miss_refs for r in _oracle_frames(trace, config)])
        assert np.array_equal(
            l1_miss_stream(trace, config.size_bytes, ways), want
        )

        caps = [16, 256]
        curve = l2_block_mrc(trace, config.size_bytes, caps, l1_ways=ways)
        expect = full_mrc(space.global_l2_ids(want, 16), caps)
        assert curve.accesses == expect.accesses == len(want)
        assert curve.misses.tolist() == expect.misses.tolist()

        l2 = L2CacheConfig(size_bytes=64 * 1024)
        gids, subs = space.l2_addresses(want, l2.l2_tile_texels)
        assert opt_l2_result(
            trace, config.size_bytes, l2, l1_ways=ways
        ) == belady_l2(gids, subs, l2.n_blocks)


def test_models_never_read_a_span_frames_whole_stream(spanning_tri, monkeypatch):
    # Each model walks frames block by block; none assembles a frame that
    # spans chunks.
    def whole(self):
        raise AssertionError("read a span frame's whole refs/weights")

    monkeypatch.setattr(_SpanFrame, "refs", property(whole))
    monkeypatch.setattr(_SpanFrame, "weights", property(whole))
    l1_mrc_sweep(spanning_tri, [2 * 1024, 8 * 1024])
    l1_mrc_sweep(spanning_tri, [2 * 1024, 8 * 1024], sample=0.25)
    l2_block_mrc(spanning_tri, 2 * 1024, [64])
    opt_l2_result(spanning_tri, 2 * 1024, L2CacheConfig(size_bytes=64 * 1024))


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
