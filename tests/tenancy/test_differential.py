"""Differential tests: every partitioning policy, batched vs reference.

The differential contract extends to tenancy: a merged multi-tenant stream
simulated with the batched kernels must be bit-identical — including the
per-tenant stat vectors — to the test oracle's per-access loops, for every
partitioning policy, and a single-tenant "merge" with a full-cache quota
must equal the plain single-tenant simulation. Every oracle level that
:func:`~tests.oracle.reference_hierarchy` installs must actually run, or
the identity would hold vacuously.
"""

import numpy as np
import pytest

from repro.core.hierarchy import HierarchyConfig, MultiLevelTextureCache
from repro.core.l1_cache import L1CacheConfig
from repro.core.l2_cache import L2CacheConfig
from repro.tenancy import (
    POLICIES,
    TenancyConfig,
    merge_traces,
    static_quotas,
    utility_quotas,
    way_quotas,
)

from tests.oracle import (
    ReferenceL1,
    ReferenceL2,
    ReferenceSetAssociativeL2,
    ReferenceTLB,
    reference_hierarchy,
)

L2 = L2CacheConfig(size_bytes=64 * 1024, l2_tile_texels=16)


def _config(tenancy, tlb_entries=8):
    return HierarchyConfig(
        l1=L1CacheConfig(size_bytes=2048),
        l2=L2,
        tlb_entries=tlb_entries,
        tenancy=tenancy,
    )


def _tenancy(policy, bases, traces):
    if policy == "static":
        quotas = static_quotas(L2, len(traces))
    elif policy == "way":
        quotas = way_quotas(8, len(traces))
    elif policy == "utility":
        quotas = utility_quotas(traces, 2048, L2)
    else:
        quotas = None
    return TenancyConfig(
        tid_bases=bases,
        policy=policy,
        quotas=quotas,
        ways=8,
    )


@pytest.fixture(scope="module")
def merged_pair(village_trace, city_trace):
    return merge_traces([village_trace, city_trace], schedule="rr", seed=0)


class TestEngineIdentity:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_policies_bit_identical_across_engines(
        self, merged_pair, village_trace, city_trace, policy
    ):
        merged, bases = merged_pair
        config = _config(
            _tenancy(policy, bases, [village_trace, city_trace])
        )
        batched = MultiLevelTextureCache(
            config, merged.address_space
        ).run_trace(merged)
        reference = reference_hierarchy(
            config, merged.address_space
        ).run_trace(merged)
        # FrameCacheStats equality covers the per-tenant vectors too.
        assert batched.frames == reference.frames
        for f in batched.frames:
            assert f.tenants is not None and f.tenants.n_tenants == 2

    def test_bursty_weighted_stream_bit_identical(
        self, village_trace, city_trace
    ):
        merged, bases = merge_traces(
            [village_trace, city_trace],
            schedule="bursty",
            weights=[2.0, 1.0],
            seed=5,
        )
        config = _config(_tenancy("none", bases, [village_trace, city_trace]))
        batched = MultiLevelTextureCache(
            config, merged.address_space
        ).run_trace(merged)
        reference = reference_hierarchy(
            config, merged.address_space
        ).run_trace(merged)
        assert batched.frames == reference.frames


class TestOracleReach:
    @pytest.mark.parametrize("tlb_entries", [8, None], ids=["tlb", "no-tlb"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_installed_oracle_runs(
        self, merged_pair, village_trace, city_trace, policy, tlb_entries, monkeypatch
    ):
        merged, bases = merged_pair
        tenancy = _tenancy(policy, bases, [village_trace, city_trace])
        sim = reference_hierarchy(
            _config(tenancy, tlb_entries), merged.address_space
        )
        levels = [(sim.l1, "access_frame", ReferenceL1)]
        levels += [
            (l2, "access_blocks", (ReferenceL2, ReferenceSetAssociativeL2))
            for l2 in getattr(sim.l2, "parts", [sim.l2])
        ]
        if tlb_entries is not None:
            levels.append((sim.tlb, "access_frame", ReferenceTLB))
        served = [0] * len(levels)
        for i, (level, method, oracle) in enumerate(levels):
            assert isinstance(level, oracle), type(level).__name__
            run = getattr(level, method)

            def counted(refs, *rest, i=i, run=run):
                served[i] += len(refs)
                return run(refs, *rest)

            monkeypatch.setattr(level, method, counted)
        sim.run_trace(merged)
        assert all(served), served


class TestAttribution:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_tenant_vectors_sum_to_frame_totals(
        self, merged_pair, village_trace, city_trace, policy
    ):
        merged, bases = merged_pair
        config = _config(_tenancy(policy, bases, [village_trace, city_trace]))
        res = MultiLevelTextureCache(
            config, merged.address_space
        ).run_trace(merged)
        for f in res.frames:
            t = f.tenants
            assert int(t.texel_reads.sum()) == f.texel_reads
            assert int(t.l1_accesses.sum()) == f.l1_accesses
            assert int(t.l1_misses.sum()) == f.l1_misses
            assert int(t.l2_accesses.sum()) == f.l2.accesses
            assert int(t.l2_full_hits.sum()) == f.l2.full_hits
            assert int(t.l2_partial_hits.sum()) == f.l2.partial_hits
            assert int(t.l2_full_misses.sum()) == f.l2.full_misses
            assert int(t.l2_evictions.sum()) == f.l2.evictions
            assert int(t.tlb_accesses.sum()) == f.tlb.accesses
            assert int(t.tlb_hits.sum()) == f.tlb.hits

    def test_homogeneous_tenants_attribution_is_symmetric(self, village_trace):
        # Two clones of the same workload on a statically split L2 read
        # the same texels and pull the same unique blocks into their
        # private partitions. (Hit *counts* may differ slightly: the L1
        # is shared, so the interleaving perturbs each clone's miss
        # stream — but not its footprint.)
        merged, bases = merge_traces([village_trace, village_trace])
        config = _config(
            _tenancy("static", bases, [village_trace, village_trace]),
            tlb_entries=None,
        )
        res = MultiLevelTextureCache(
            config, merged.address_space
        ).run_trace(merged)
        for f in res.frames:
            t = f.tenants
            assert t.texel_reads[0] == t.texel_reads[1]
            assert t.l2_full_misses[0] == t.l2_full_misses[1]


class TestSingleTenantEquivalence:
    def test_full_quota_single_tenant_equals_plain_sim(self, village_trace):
        merged, bases = merge_traces([village_trace])
        tenancy = TenancyConfig(
            tid_bases=bases, policy="static", quotas=(L2.n_blocks,)
        )
        shared = MultiLevelTextureCache(
            _config(tenancy), merged.address_space
        ).run_trace(merged)
        plain = MultiLevelTextureCache(
            _config(None), village_trace.address_space
        ).run_trace(village_trace)
        for s, p in zip(shared.frames, plain.frames):
            assert s.texel_reads == p.texel_reads
            assert s.l1_accesses == p.l1_accesses
            assert s.l1_misses == p.l1_misses
            assert s.l2 == p.l2
            assert s.tlb == p.tlb
            assert np.array_equal(s.tenants.texel_reads, [p.texel_reads])
