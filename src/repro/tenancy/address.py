"""Tenant tagging of the packed int64 tile-reference address space.

A multi-tenant serving simulation merges N independent rendering contexts
into one shared reference stream. The packed ref layout already reserves
14 texture-id bits (:mod:`repro.texture.tiling`), and the paper's L2 page
table lays textures out contiguously (``extent_base``), so tenant tagging
needs no new bits and no translation changes:

* every tenant's texture list is concatenated into one merged
  :class:`~repro.texture.tiling.AddressSpace`;
* tenant *t*'s texture ids are offset by a per-tenant base
  (``tid_bases[t]``), which for a packed ref is a single int64 add —
  ``refs + (base << TID_SHIFT)``;
* because global block ids are per-tid contiguous, each tenant owns a
  disjoint, contiguous gid range in the shared page table.

Alias-freedom between tenants therefore holds by construction, and the
tenant of any ref is recoverable with one ``searchsorted``.
"""

from __future__ import annotations

import numpy as np

# The tid field geometry is deliberately private to the tiling module; the
# tenancy layer is the one other place allowed to reason about it.
from repro.texture.tiling import _TID_MASK, _TID_SHIFT, AddressSpace

__all__ = [
    "TENANT_TID_CAPACITY",
    "tenant_tid_bases",
    "tag_refs",
    "tenant_of_refs",
    "tenant_gid_extents",
]

#: Total texture ids available across all tenants of one merged space.
TENANT_TID_CAPACITY = _TID_MASK


def tenant_tid_bases(texture_counts) -> tuple[int, ...]:
    """Per-tenant first texture id in the merged space (exclusive cumsum).

    Raises if any tenant has no textures (it could never be told apart
    from its neighbour) or the merged set overflows the tid field.
    """
    counts = [int(c) for c in texture_counts]
    if not counts:
        raise ValueError("need at least one tenant")
    if any(c < 1 for c in counts):
        raise ValueError(f"every tenant needs at least one texture: {counts}")
    total = sum(counts)
    if total > TENANT_TID_CAPACITY:
        raise ValueError(
            f"merged texture set ({total}) overflows the tid field "
            f"({TENANT_TID_CAPACITY})"
        )
    bases = np.concatenate([[0], np.cumsum(counts[:-1])])
    return tuple(int(b) for b in bases)


def tag_refs(refs: np.ndarray, tid_base: int) -> np.ndarray:
    """Retag packed refs into a tenant's tid range of the merged space.

    The tid field sits above every other field, so offsetting it is a
    plain add; validity of the resulting tids is guaranteed by
    :func:`tenant_tid_bases` having accepted the merged texture counts.
    """
    refs = np.asarray(refs, dtype=np.int64)
    if tid_base == 0:
        return refs
    return refs + (np.int64(tid_base) << np.int64(_TID_SHIFT))


def tenant_of_refs(refs: np.ndarray, tid_bases) -> np.ndarray:
    """Tenant index of every packed ref of a merged stream."""
    refs = np.asarray(refs, dtype=np.int64)
    tids = (refs >> np.int64(_TID_SHIFT)) & np.int64(_TID_MASK)
    bases = np.asarray(tid_bases, dtype=np.int64)
    return np.searchsorted(bases, tids, side="right") - 1


def tenant_gid_extents(
    space: AddressSpace, tid_bases, l2_tile_texels: int
) -> tuple[tuple[int, int], ...]:
    """Per-tenant ``[start, stop)`` global-block-id range in the page table.

    The ranges tile the whole table without gaps — the merged layout keeps
    each tenant's textures contiguous.
    """
    bases = list(tid_bases)
    starts = [space.l2_extent(int(b), l2_tile_texels)[0] for b in bases]
    last_start, last_len = space.l2_extent(
        space.texture_count - 1, l2_tile_texels
    )
    starts.append(last_start + last_len)
    return tuple(
        (int(starts[i]), int(starts[i + 1])) for i in range(len(bases))
    )
