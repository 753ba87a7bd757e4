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
and router-hint prefetch; see ``docs/KV_TIERS.md``.
"""

from repro.kvcache.block import Block, BlockId, hash_token_blocks, hash_chain
from repro.kvcache.allocator import BlockAllocator
from repro.kvcache.prefix_tree import RadixPrefixCache, PrefixMatch
from repro.kvcache.offload import CPUOffloadStore
from repro.kvcache.manager import KVCacheManager, CacheStats
from repro.kvcache.tiers import (
    ClusterPrefixStore,
    TieredPrefixStore,
    TierLookup,
    TierStats,
    tier_config_from_dict,
)

__all__ = [
    "Block",
    "BlockId",
    "hash_token_blocks",
    "hash_chain",
    "BlockAllocator",
    "RadixPrefixCache",
    "PrefixMatch",
    "CPUOffloadStore",
    "KVCacheManager",
    "CacheStats",
    "tier_config_from_dict",
    "TieredPrefixStore",
    "TierLookup",
    "TierStats",
    "ClusterPrefixStore",
]
