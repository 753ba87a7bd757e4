"""Tiered prefix-cache subsystem: GPU -> host -> cluster-shared KV store.

The paper's default engine *discards* suffix KV caches; §9 names LMCache-style
CPU offload as the alternative.  This package generalises that alternative
into a full hierarchy that the fleet layer can share:

* configuration — a ``"kv_tiers"`` JSON block parses, with
  ``repro.spec.core.from_dict(KVTiersSpec, block)`` (typed errors with JSON
  paths), into the :class:`~repro.spec.models.KVTiersSpec` every tier
  builder reads, whose ``promote_at`` turns the promotion policy
  (``always`` / ``on-nth-hit`` / ``never``) into the lower-tier hit count
  that promotes a block;
* :mod:`repro.kvcache.tiers.cluster_store` — the fleet-shared L3
  :class:`ClusterPrefixStore` with per-replica hit accounting;
* :mod:`repro.kvcache.tiers.store` — :class:`TieredPrefixStore`, the
  per-replica object that layers L1 (radix tree) over L2 (host) over L3 and
  implements fetch / promote / demote / prefetch / drain.

``docs/KV_TIERS.md`` is the configuration reference and cookbook.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.kvcache.tiers.cluster_store": ("ClusterPrefixStore", "ClusterStoreStats"),
    "repro.spec.models": ("TIER_NAMES",),
    "repro.kvcache.tiers.store": (
        "TieredPrefixStore", "TierLookup", "TierStats", "build_cluster_store", "build_tiered_store",
    ),
})
