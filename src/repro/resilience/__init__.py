"""Resilience policies: deadlines, retries, hedging, breakers, degradation.

This package owns the client-side *reaction* to failure, complementing
:mod:`repro.faults` (which owns the failures themselves).  A JSON
``"resilience"`` block parses into a :class:`~repro.spec.models.ResilienceSpec`
(``repro.spec.core.from_dict(ResilienceSpec, block)``), whose optional
sub-specs the policy state machines in :mod:`repro.resilience.policy` read
directly; the :class:`~repro.cluster.fleet.Fleet` hands it to the
:class:`PolicyRuntime` it drives.  A block with no sub-policy, or with
``enabled: false``, is inactive (``ResilienceSpec.active`` is false) and
treated exactly like ``None``.  The policies:

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
across shard counts and worker pools (policies force lockstep mode, the
ordinary fleet loop).  See ``docs/RESILIENCE.md``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.resilience.policy": (
        "BreakerBank", "CircuitBreaker", "DegradeController", "HealthAwareRouter", "PolicyRuntime",
    ),
})
