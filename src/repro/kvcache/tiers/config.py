"""Parsing of the tiered prefix-cache configuration.

A :class:`~repro.spec.models.KVTiersSpec` describes the whole hierarchy for
one replica: whether tiering is on at all, how big the host (L2) and
cluster-shared (L3) tiers are, which interconnects their transfers are
charged through, and the promotion / demotion / prefetch policies that move
blocks between tiers.  The scenario engine parses it from a ``"kv_tiers"``
JSON block; the CLI routes its ``--tier-*`` flags through
:func:`tier_config_from_dict` too; the :class:`~repro.cluster.Fleet` hands
the one model to every replica it builds, which reads the per-tier sizing
through ``spec.host`` and ``spec.cluster``.

Config block shape (JSON)::

    "kv_tiers": {
      "enabled": true,
      "tiers": {
        "host":    {"capacity_gib": 4.0,  "link": "pcie-gen4"},
        "cluster": {"capacity_gib": 16.0, "link": "nvlink"}
      },
      "promotion": "on-nth-hit",          // always | on-nth-hit | never
      "promotion_threshold": 2,           // N of promote-on-Nth-hit
      "demote_on_evict": true,            // evictions cascade down instead of dropping
      "prefetch": true                    // router-hint prefetch before dispatch
    }

Unknown tier names fail with :class:`~repro.errors.UnknownTierError` (the
message lists the valid tier names and the JSON path of the typo); invalid
capacities fail with :class:`~repro.errors.TierCapacityError`.
"""

from __future__ import annotations

from repro.spec.core import from_dict
from repro.spec.models import TIER_NAMES, KVTiersSpec


def tier_config_from_dict(config: dict, *, path: str = "kv_tiers") -> KVTiersSpec:
    """Parse a ``"kv_tiers"`` JSON block into a :class:`KVTiersSpec`.

    Args:
        config: The decoded JSON object.
        path: Dotted path of the block inside the surrounding document, used
            to point error messages at the offending key.

    Raises:
        UnknownTierError: if ``tiers`` names a tier that does not exist (the
            message lists the valid names).
        TierCapacityError: if a capacity is negative or not a number.
        TierError: on any other malformed key or value.
    """
    return from_dict(KVTiersSpec, config, path=path)
