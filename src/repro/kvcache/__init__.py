"""KV-cache substrate: paged block allocation, prefix caching, eviction, tiers.

This package reproduces the storage layer that both PrefillOnly and the
baselines schedule against: a block (page) allocator in the spirit of
PagedAttention, a radix-tree prefix cache with LRU eviction in the spirit of
vLLM's automatic prefix caching, an optional CPU offload store, and a manager
that ties them together and exposes the operations engines need (lookup,
reserve-for-execution, commit, discard suffix).

:mod:`repro.kvcache.tiers` grows the offload store into a full hierarchy —
GPU radix tree (L1) over host memory (L2) over a fleet-shared cluster store
(L3) — with pluggable promotion/demotion policies, modelled transfer costs,
and router-hint prefetch; a ``"kv_tiers"`` block parses into its
:class:`~repro.spec.models.KVTiersSpec` with
``repro.spec.core.from_dict``.  See ``docs/KV_TIERS.md``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.kvcache.block": ("Block", "BlockId", "hash_token_blocks", "hash_chain"),
    "repro.kvcache.allocator": ("BlockAllocator",),
    "repro.kvcache.prefix_tree": ("RadixPrefixCache", "PrefixMatch"),
    "repro.kvcache.offload": ("CPUOffloadStore",),
    "repro.kvcache.manager": ("KVCacheManager", "CacheStats"),
    "repro.kvcache.tiers.cluster_store": ("ClusterPrefixStore",),
    "repro.kvcache.tiers.store": ("TieredPrefixStore", "TierLookup", "TierStats"),
})
