"""TenancyConfig validation and quota allocators."""

import pytest

from repro.core.l2_cache import L2CacheConfig
from repro.tenancy.partition import (
    POLICIES,
    PartitionedL2,
    TenancyConfig,
    split_quota,
    static_quotas,
    utility_quotas,
    way_quotas,
)

L2_64K = L2CacheConfig(size_bytes=64 * 1024, l2_tile_texels=16)


class TestTenancyConfig:
    def test_valid_configs(self):
        assert TenancyConfig(tid_bases=(0, 3)).n_tenants == 2
        TenancyConfig(tid_bases=(0, 3), policy="static", quotas=(32, 32))
        TenancyConfig(tid_bases=(0, 3), policy="way", quotas=(4, 4), ways=8)

    def test_rejects_bad_tid_bases(self):
        with pytest.raises(ValueError, match="start at 0"):
            TenancyConfig(tid_bases=(1, 3))
        with pytest.raises(ValueError, match="start at 0"):
            TenancyConfig(tid_bases=())
        with pytest.raises(ValueError, match="strictly increasing"):
            TenancyConfig(tid_bases=(0, 3, 3))

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown tenancy policy"):
            TenancyConfig(tid_bases=(0, 3), policy="fair")

    def test_quota_presence_must_match_policy(self):
        with pytest.raises(ValueError, match="takes no quotas"):
            TenancyConfig(tid_bases=(0, 3), policy="none", quotas=(1, 1))
        with pytest.raises(ValueError, match="one quota per tenant"):
            TenancyConfig(tid_bases=(0, 3), policy="static")
        with pytest.raises(ValueError, match="one quota per tenant"):
            TenancyConfig(tid_bases=(0, 3), policy="static", quotas=(64,))
        with pytest.raises(ValueError, match=">= 1"):
            TenancyConfig(tid_bases=(0, 3), policy="static", quotas=(64, 0))

    def test_way_policy_bounds(self):
        with pytest.raises(ValueError, match="cannot each own a way"):
            TenancyConfig(
                tid_bases=(0, 1, 2), policy="way", quotas=(1, 1, 1), ways=2
            )
        with pytest.raises(ValueError, match="exceed the array"):
            TenancyConfig(
                tid_bases=(0, 3), policy="way", quotas=(5, 4), ways=8
            )


class TestPartitionedComponents:
    def test_l2_requires_partitioning_policy(self, village_trace):
        tenancy = TenancyConfig(tid_bases=(0, 3))
        with pytest.raises(ValueError, match="partitioning policy"):
            PartitionedL2(L2_64K, village_trace.address_space, tenancy)

    def test_l2_block_quotas_must_fit(self, village_trace):
        tenancy = TenancyConfig(
            tid_bases=(0, 3), policy="static", quotas=(60, 60)
        )
        with pytest.raises(ValueError, match="exceed the L2"):
            PartitionedL2(L2_64K, village_trace.address_space, tenancy)

    def test_way_count_must_divide_blocks(self, village_trace):
        tenancy = TenancyConfig(
            tid_bases=(0, 3), policy="way", quotas=(3, 3), ways=7
        )
        with pytest.raises(ValueError, match="must divide"):
            PartitionedL2(L2_64K, village_trace.address_space, tenancy)


class TestSplitQuota:
    def test_sums_exactly_and_respects_minimum(self):
        for total, weights in (
            (64, [1.0, 1.0]),
            (64, [3.0, 1.0]),
            (7, [1.0, 1.0, 1.0]),
            (100, [1e-6, 1.0]),
        ):
            shares = split_quota(total, weights)
            assert sum(shares) == total
            assert all(s >= 1 for s in shares)

    def test_proportional_and_deterministic(self):
        assert split_quota(64, [3.0, 1.0]) == (48, 16)
        assert split_quota(64, [3.0, 1.0]) == split_quota(64, [3.0, 1.0])

    def test_rejects_impossible_splits(self):
        with pytest.raises(ValueError, match="cannot split"):
            split_quota(2, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            split_quota(8, [1.0, -1.0])

    def test_helpers_split_blocks_and_ways(self):
        assert static_quotas(L2_64K, 2) == (32, 32)
        assert static_quotas(L2_64K, 2, [3.0, 1.0]) == (48, 16)
        assert way_quotas(8, 4) == (2, 2, 2, 2)
        assert way_quotas(8, 2, [5.0, 3.0]) == (5, 3)


class TestUtilityQuotas:
    def test_total_deterministic_and_positive(self, village_trace, city_trace):
        quotas = utility_quotas(
            [village_trace, city_trace], 2048, L2_64K
        )
        assert sum(quotas) == L2_64K.n_blocks
        assert all(q >= 1 for q in quotas)
        assert quotas == utility_quotas(
            [village_trace, city_trace], 2048, L2_64K
        )

    def test_starved_cache_still_splits_totally(self, village_trace):
        tiny = L2CacheConfig(size_bytes=2 * 1024, l2_tile_texels=16)
        quotas = utility_quotas([village_trace, village_trace], 2048, tiny)
        assert sum(quotas) == tiny.n_blocks
        assert all(q >= 1 for q in quotas)

    def test_rejects_more_tenants_than_blocks(self, village_trace):
        one_block = L2CacheConfig(size_bytes=1024, l2_tile_texels=16)
        with pytest.raises(ValueError, match="one block each"):
            utility_quotas([village_trace, village_trace], 2048, one_block)

    def test_policies_registry(self):
        assert POLICIES == ("none", "static", "way", "utility")
