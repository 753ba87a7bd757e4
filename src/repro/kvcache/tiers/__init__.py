"""Tiered prefix-cache subsystem: GPU -> host -> cluster-shared KV store.

The paper's default engine *discards* suffix KV caches; §9 names LMCache-style
CPU offload as the alternative.  This package generalises that alternative
into a full hierarchy that the fleet layer can share:

* :mod:`repro.kvcache.tiers.config` — :class:`TierConfig` and the
  ``"kv_tiers"`` JSON-block parser (typed errors with JSON paths);
* :mod:`repro.kvcache.tiers.policy` — pluggable promotion policies
  (``always`` / ``on-nth-hit`` / ``never``);
* :mod:`repro.kvcache.tiers.cluster_store` — the fleet-shared L3
  :class:`ClusterPrefixStore` with per-replica hit accounting;
* :mod:`repro.kvcache.tiers.store` — :class:`TieredPrefixStore`, the
  per-replica object that layers L1 (radix tree) over L2 (host) over L3 and
  implements fetch / promote / demote / prefetch / drain.

``docs/KV_TIERS.md`` is the configuration reference and cookbook.
"""

from repro.kvcache.tiers.cluster_store import ClusterPrefixStore, ClusterStoreStats
from repro.kvcache.tiers.config import TIER_NAMES, TierConfig, tier_config_from_dict
from repro.kvcache.tiers.policy import (
    PROMOTION_POLICIES,
    AlwaysPromote,
    NeverPromote,
    PromoteOnNthHit,
    PromotionPolicy,
    make_promotion_policy,
)
from repro.kvcache.tiers.store import (
    TieredPrefixStore,
    TierLookup,
    TierStats,
    build_cluster_store,
    build_tiered_store,
)

__all__ = [
    "TIER_NAMES",
    "TierConfig",
    "tier_config_from_dict",
    "PromotionPolicy",
    "AlwaysPromote",
    "NeverPromote",
    "PromoteOnNthHit",
    "PROMOTION_POLICIES",
    "make_promotion_policy",
    "ClusterPrefixStore",
    "ClusterStoreStats",
    "TieredPrefixStore",
    "TierLookup",
    "TierStats",
    "build_tiered_store",
    "build_cluster_store",
]
