"""Microbenchmarks of the simulator's hot primitives.

Unlike the table/figure benches (one-shot regenerations), these run multiple
rounds so pytest-benchmark reports meaningful distributions: reference
compression, L1 simulation (vectorized vs the test oracle's loop), L2
simulation, address translation, and the oracle's per-triangle rasterizer.
"""

import numpy as np
import pytest

from repro.core.l1_cache import L1CacheConfig, L1CacheSim
from repro.core.l2_cache import L2CacheConfig, L2TextureCache
from repro.texture.texture import Texture
from repro.texture.tiling import AddressSpace, pack_tile_refs
from repro.trace.events import collapse_runs

from tests.oracle import ReferenceL1, rasterize_triangle


@pytest.fixture(scope="module")
def synthetic_stream():
    """A locality-bearing synthetic tile stream (random walk over a texture)."""
    rng = np.random.default_rng(42)
    n = 200_000
    steps = rng.integers(-1, 2, size=(n, 2))
    pos = np.cumsum(steps, axis=0) + 64
    pos = np.clip(pos, 0, 127)
    refs = pack_tile_refs(0, 0, pos[:, 1], pos[:, 0], check=False)
    return refs


@pytest.fixture(scope="module")
def space():
    return AddressSpace([Texture("bench", 512, 512)])


def test_collapse_runs_throughput(benchmark, synthetic_stream):
    values, weights = benchmark(collapse_runs, synthetic_stream)
    assert int(weights.sum()) == len(synthetic_stream)


def test_l1_vectorized_throughput(benchmark, synthetic_stream, space):
    refs, weights = collapse_runs(synthetic_stream)
    sets = space.l1_set_indices(refs, 128)

    def run():
        sim = L1CacheSim(L1CacheConfig(size_bytes=16 * 1024))
        return sim.access_frame(refs, weights, sets)

    result = benchmark(run)
    assert result.misses > 0


def test_l1_reference_throughput(benchmark, synthetic_stream, space):
    refs, weights = collapse_runs(synthetic_stream[:20_000])
    sets = space.l1_set_indices(refs, 128)

    def run():
        sim = ReferenceL1(L1CacheConfig(size_bytes=16 * 1024))
        return sim.access_frame(refs, weights, sets)

    result = benchmark(run)
    assert result.misses > 0


def test_l2_cache_throughput(benchmark, synthetic_stream, space):
    refs, _ = collapse_runs(synthetic_stream)
    miss_refs = refs[:50_000]

    def run():
        cache = L2TextureCache(
            L2CacheConfig(size_bytes=256 * 1024, l2_tile_texels=16), space
        )
        return cache.access_frame(miss_refs)

    result = benchmark(run)
    assert result.accesses == len(miss_refs)


def test_address_translation_throughput(benchmark, synthetic_stream, space):
    gids = benchmark(space.global_l2_ids, synthetic_stream, 16)
    assert len(gids) == len(synthetic_stream)


def test_rasterizer_throughput(benchmark):
    def run():
        return rasterize_triangle(
            screen_xy=np.array([[0.0, 0.0], [0.0, 512.0], [512.0, 512.0]]),
            inv_w=np.array([1.0, 0.5, 0.25]),
            uv=np.array([[0.0, 0.0], [0.0, 4.0], [4.0, 4.0]]),
            z_ndc=np.array([0.0, 0.5, 0.9]),
            width=512,
            height=512,
            tex_width=256,
            tex_height=256,
        )

    frags = benchmark(run)
    assert len(frags) > 100_000
