"""Resilience policies: deadlines, retries, hedging, breakers, degradation.

This package owns the client-side *reaction* to failure, complementing
:mod:`repro.faults` (which owns the failures themselves).  A
:class:`ResilienceConfig` compiled from a JSON ``"resilience"`` block turns
into a :class:`PolicyRuntime` the :class:`~repro.cluster.fleet.Fleet` drives:

* **deadlines** — requests past ``arrival + timeout_s`` are cancelled in
  queue or mid-flight and accounted as ``deadline_missed``;
* **retries** — crash-evacuated work re-executes after exponential backoff
  with per-request seeded jitter, bounded by per-request attempt and
  per-tenant budget caps;
* **hedging** — a straggling request is duplicated onto a second replica
  after a percentile-derived delay; the first completion wins and the loser
  is cancelled;
* **circuit breaking** — per-replica error/slowdown windows open a breaker
  that any router is wrapped to avoid (:class:`HealthAwareRouter`), with
  half-open probe traffic deciding when to close it again;
* **degradation** — sustained queue pressure engages brownout tiers that
  first pause prefetch/L3-publish traffic, then shed low-priority tenants.

The standing invariant, pinned by tests: with the block absent or
``enabled: false``, every simulation result is byte-identical to a build
without this package; with a fixed seed, enabled runs are bit-reproducible
across shard counts, shard modes, and worker pools (policies force lockstep
mode, the ordinary fleet loop).  See ``docs/RESILIENCE.md``.
"""

from repro.resilience.config import (
    BreakerPolicy,
    DeadlinePolicy,
    DegradationPolicy,
    HedgePolicy,
    ResilienceConfig,
    RetryPolicy,
    resilience_from_dict,
    resilience_from_model,
)
from repro.resilience.policy import (
    BreakerBank,
    CircuitBreaker,
    DegradeController,
    HealthAwareRouter,
    PolicyRuntime,
)

__all__ = [
    "BreakerBank",
    "BreakerPolicy",
    "CircuitBreaker",
    "DeadlinePolicy",
    "DegradationPolicy",
    "DegradeController",
    "HealthAwareRouter",
    "HedgePolicy",
    "PolicyRuntime",
    "ResilienceConfig",
    "RetryPolicy",
    "resilience_from_dict",
    "resilience_from_model",
]
