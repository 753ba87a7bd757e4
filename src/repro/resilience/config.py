"""Parsing of the ``"resilience"`` config block.

The block's runtime config is its spec model,
:class:`repro.spec.models.ResilienceSpec`, whose optional sub-specs
(``DeadlineSpec``, ``RetrySpec``, ``HedgeSpec``, ``BreakerSpec``,
``DegradationSpec``) the policy state machines in
:mod:`repro.resilience.policy` read directly.  The spec models own shape,
types, ranges, and cross-field validation; this module is the parse entry
point for a bare block (the ``fleet --resilience`` file).

Config block shape (JSON)::

    "resilience": {
      "enabled": true,
      "seed": 0,                      // base of the retry-jitter streams
      "deadline": {"timeout_s": 30.0},
      "retry":    {"max_attempts": 3, "budget_per_tenant": 20,
                   "backoff_base_s": 0.5, "backoff_multiplier": 2.0,
                   "jitter": 0.5},
      "hedge":    {"percentile": 95, "min_samples": 20, "min_delay_s": 0.05},
      "breaker":  {"window": 20, "failure_ratio": 0.5, "min_samples": 5,
                   "cooldown_s": 30.0, "half_open_probes": 2},
      "degrade":  {"depth_per_replica": 8, "shed_depth_per_replica": 16,
                   "sustain_s": 10.0, "recover_s": 10.0,
                   "low_priority_tenants": ["batch"]}
    }

Every sub-policy is optional and independent; a block with none of them (or
``enabled: false``) is inactive (``ResilienceSpec.active`` is false), and the
fleet treats it exactly like ``None``.
"""

from __future__ import annotations

from repro.spec.core import from_dict
from repro.spec.models import ResilienceSpec

__all__ = ["resilience_from_dict"]


def resilience_from_dict(config: dict, *, path: str = "resilience") -> ResilienceSpec:
    """Parse a ``"resilience"`` JSON block into a :class:`ResilienceSpec`.

    Raises:
        ResilienceSpecError: on any malformed key, type, range, or
            cross-field rule (the message carries the dotted JSON path).
    """
    return from_dict(ResilienceSpec, config, path=path)
