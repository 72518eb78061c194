"""Tenant tagging of the packed address space: alias-freedom by construction."""

import numpy as np
import pytest

from repro.tenancy.address import (
    TENANT_TID_CAPACITY,
    tag_refs,
    tenant_gid_extents,
    tenant_of_refs,
    tenant_tid_bases,
)
from repro.tenancy.schedule import merge_traces


class TestTidBases:
    def test_exclusive_cumsum(self):
        assert tenant_tid_bases([3, 2, 5]) == (0, 3, 5)
        assert tenant_tid_bases([1]) == (0,)

    def test_rejects_empty_and_textureless_tenants(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            tenant_tid_bases([])
        with pytest.raises(ValueError, match="at least one texture"):
            tenant_tid_bases([3, 0, 2])

    def test_rejects_tid_field_overflow(self):
        with pytest.raises(ValueError, match="overflows"):
            tenant_tid_bases([TENANT_TID_CAPACITY, 1])
        # Exactly at capacity is fine.
        bases = tenant_tid_bases([TENANT_TID_CAPACITY - 1, 1])
        assert bases == (0, TENANT_TID_CAPACITY - 1)


class TestTagging:
    def test_zero_base_is_identity(self, village_trace):
        refs = village_trace.frames[0].refs
        assert tag_refs(refs, 0) is refs

    def test_tenant_recovered_from_tagged_refs(self, village_trace, city_trace):
        bases = tenant_tid_bases(
            [len(village_trace.textures), len(city_trace.textures)]
        )
        refs0 = tag_refs(village_trace.frames[0].refs, bases[0])
        refs1 = tag_refs(city_trace.frames[0].refs, bases[1])
        assert np.all(tenant_of_refs(refs0, bases) == 0)
        assert np.all(tenant_of_refs(refs1, bases) == 1)
        mixed = np.concatenate([refs0, refs1, refs0])
        owners = tenant_of_refs(mixed, bases)
        assert np.array_equal(
            owners,
            np.concatenate(
                [np.zeros(len(refs0)), np.ones(len(refs1)), np.zeros(len(refs0))]
            ),
        )

    def test_tagged_streams_never_alias(self, village_trace, city_trace):
        merged, bases = merge_traces([village_trace, city_trace])
        refs = np.concatenate([f.refs for f in merged.frames])
        owners = tenant_of_refs(refs, bases)
        blocks0 = set(np.unique(refs[owners == 0]).tolist())
        blocks1 = set(np.unique(refs[owners == 1]).tolist())
        assert blocks0 and blocks1
        assert not blocks0 & blocks1


class TestGidExtents:
    def test_extents_tile_the_page_table(self, village_trace, city_trace):
        merged, bases = merge_traces([village_trace, city_trace])
        space = merged.address_space
        extents = tenant_gid_extents(space, bases, 16)
        assert extents[0][0] == 0
        for (_, stop), (start, _) in zip(extents, extents[1:]):
            assert stop == start
        last_start, last_len = space.l2_extent(space.texture_count - 1, 16)
        assert extents[-1][1] == last_start + last_len

    def test_tenant_of_gids_matches_ref_owners(self, village_trace, city_trace):
        # A tenant's gids in the merged page table are its own gids, in
        # order, shifted by the start of its extent.
        traces = [village_trace, city_trace]
        merged, bases = merge_traces(traces)
        space = merged.address_space
        extents = tenant_gid_extents(space, bases, 16)
        for f, frame in enumerate(merged.frames):
            owners = tenant_of_refs(frame.refs, bases)
            gids = space.global_l2_ids(frame.refs, 16)
            for t, trace in enumerate(traces):
                own = trace.address_space.global_l2_ids(trace.frames[f].refs, 16)
                start, stop = extents[t]
                assert np.array_equal(gids[owners == t], own + start)
                assert np.all(own + start < stop)
