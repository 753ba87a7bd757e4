"""Resilience-policy runtime: the mutable state machines the fleet drives.

Everything here is deterministic by construction: breakers and the degrade
controller advance only on the simulated clock the fleet hands them,
retry jitter comes from per-``(seed, request_id, attempt)`` RNG streams, and
the hedge delay is a pure function of the trailing completed-latency window.
No wall clock, no global RNG.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.simulation.routing import Router
from repro.spec.models import ResilienceSpec
from repro.workloads.trace import Request

__all__ = [
    "BreakerBank",
    "CircuitBreaker",
    "DegradeController",
    "HealthAwareRouter",
    "PolicyRuntime",
    "TrackedRequest",
]

#: Trailing completed-latency samples the hedge-delay percentile is taken
#: over.  The window is also kept sorted, so a new sample costs one
#: O(window) list insert and a hedge delay is a constant-time read.
HEDGE_SAMPLE_WINDOW = 512

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """One replica's health state machine.

    Closed: outcomes accumulate in a trailing window; when at least
    ``min_samples`` outcomes exist and the failure fraction reaches
    ``failure_ratio``, the breaker opens.  Open: the replica receives no
    routed traffic until ``cooldown_s`` of simulated time passes, then it
    half-opens.  Half-open: up to ``half_open_probes`` probe requests may be
    routed; that many consecutive successes close the breaker (window
    cleared), any failure re-opens it.

    The open -> half-open transition is evaluated lazily against the clock
    the owning :class:`BreakerBank` carries, so the breaker needs no timer
    of its own in the event loop.
    """

    def __init__(self, policy, *, on_transition=None) -> None:
        self.policy = policy
        self.state = CLOSED
        self._window: deque[bool] = deque(maxlen=policy.window)
        self._opened_at = 0.0
        self._probes_routed = 0
        self._probe_successes = 0
        self._on_transition = on_transition

    def _transition(self, new_state: str, now: float) -> None:
        old, self.state = self.state, new_state
        if self._on_transition is not None:
            self._on_transition(old, new_state, now)

    def _poll(self, now: float) -> None:
        if self.state == OPEN and now - self._opened_at >= self.policy.cooldown_s:
            self._probes_routed = 0
            self._probe_successes = 0
            self._transition(HALF_OPEN, now)

    def allows(self, now: float) -> bool:
        """Whether the router may send this replica a request at ``now``."""
        self._poll(now)
        if self.state == CLOSED:
            return True
        if self.state == HALF_OPEN:
            return self._probes_routed < self.policy.half_open_probes
        return False

    def on_routed(self, now: float) -> None:
        """Account one routed request (consumes a half-open probe slot)."""
        self._poll(now)
        if self.state == HALF_OPEN:
            self._probes_routed += 1

    def on_success(self, now: float) -> None:
        self._poll(now)
        if self.state == HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.policy.half_open_probes:
                self._window.clear()
                self._transition(CLOSED, now)
            return
        self._window.append(True)

    def on_failure(self, now: float) -> None:
        self._poll(now)
        if self.state == HALF_OPEN:
            self._opened_at = now
            self._transition(OPEN, now)
            return
        if self.state == OPEN:
            return
        self._window.append(False)
        if len(self._window) < self.policy.min_samples:
            return
        failures = sum(1 for ok in self._window if not ok)
        if failures / len(self._window) >= self.policy.failure_ratio:
            self._opened_at = now
            self._transition(OPEN, now)


class BreakerBank:
    """Per-replica-key breakers plus the shared simulated clock.

    The owning fleet bumps :attr:`clock` at every entry point (submit,
    policy timer, fault delivery), which is what lets the wrapped router —
    whose :meth:`~HealthAwareRouter.route` signature carries no time —
    evaluate lazy cooldown transitions at the correct simulated instant.

    Args:
        policy: The :class:`~repro.spec.models.BreakerSpec`.
        on_transition: Optional ``(key, old_state, new_state, time)``
            callback for observability / counters.
    """

    def __init__(self, policy, *,
                 on_transition: Callable[[int, str, str, float], None] | None = None,
                 ) -> None:
        self.policy = policy
        self.clock = 0.0
        self._on_transition = on_transition
        self._breakers: dict[int, CircuitBreaker] = {}

    def _get(self, key: int) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            callback = None
            if self._on_transition is not None:
                report = self._on_transition

                def callback(old, new, now, _key=key):
                    report(_key, old, new, now)

            breaker = CircuitBreaker(self.policy, on_transition=callback)
            self._breakers[key] = breaker
        return breaker

    def state(self, key: int) -> str:
        """Current state name of ``key``'s breaker (lazily polled)."""
        breaker = self._get(key)
        breaker._poll(self.clock)
        return breaker.state

    def allows(self, key: int) -> bool:
        return self._get(key).allows(self.clock)

    def on_routed(self, key: int) -> None:
        self._get(key).on_routed(self.clock)

    def on_success(self, key: int, latency: float, now: float) -> None:
        """Feed one completion; slow completions count as failures."""
        slow = self.policy.slow_latency_s
        breaker = self._get(key)
        if slow is not None and latency > slow:
            breaker.on_failure(now)
        else:
            breaker.on_success(now)

    def on_failure(self, key: int, now: float) -> None:
        self._get(key).on_failure(now)

    def discard(self, key: int) -> None:
        """Forget a replica that no longer exists (crash / retirement)."""
        self._breakers.pop(key, None)


class HealthAwareRouter(Router):
    """Wrap any router so it skips replicas whose breaker is open.

    The inner router picks first; when its choice is breaker-blocked the
    request deflects deterministically to ``allowed[request_id % len(allowed)]``
    among the healthy replicas.  With every breaker open the inner choice
    stands — shedding the whole fleet is the admission layer's call, not the
    router's.  Replica *keys* (stable when replicas join or leave) come from
    the engine instances the fleet hands :meth:`observe_instances`, so
    breakers survive index reshuffles when replicas crash or retire.
    """

    def __init__(self, inner: Router, bank: BreakerBank) -> None:
        super().__init__(inner.num_instances)
        self.inner = inner
        self.bank = bank
        self._keys: tuple[int, ...] = ()

    # The wrapper is exactly as demanding as what it wraps; these drive the
    # fleet's depth collection and the sharded engine's pre-routing checks.
    @property
    def needs_queue_depths(self) -> bool:  # type: ignore[override]
        return self.inner.needs_queue_depths

    @property
    def consults_instances(self) -> bool:  # type: ignore[override]
        return True

    def observe_instances(self, instances: Sequence) -> None:
        super().observe_instances(instances)
        self._keys = tuple(instance.obs_key for instance in instances)
        self.inner.observe_instances(instances)

    def route(self, request: Request, queue_depths: list[int]) -> int:
        choice = self.inner.route(request, queue_depths)
        keys = self._keys
        if keys:
            allowed = [
                index for index, key in enumerate(keys) if self.bank.allows(key)
            ]
            if allowed and choice not in allowed:
                choice = allowed[request.request_id % len(allowed)]
        if choice < len(keys):
            self.bank.on_routed(keys[choice])
        return choice


class DegradeController:
    """Hysteresis brownout tiers driven by sampled queue pressure.

    :meth:`observe` is called with the current pressure (mean waiting-queue
    depth per routable replica) at every fleet submit; a tier engages after
    ``sustain_s`` of continuous pressure at or above its threshold and
    releases after ``recover_s`` continuously below it.  Transitions are
    reported through ``on_transition(old_tier, new_tier, time)``; time spent
    at tier >= 1 accumulates into :attr:`degraded_seconds`
    (:meth:`finalize` closes the trailing interval).
    """

    def __init__(self, policy, *,
                 on_transition: Callable[[int, int, float], None] | None = None,
                 ) -> None:
        self.policy = policy
        self.tier = 0
        self.degraded_seconds = 0.0
        self._on_transition = on_transition
        self._above_since: list[float | None] = [None, None]
        self._below_since: list[float | None] = [None, None]
        self._degraded_since: float | None = None

    def _thresholds(self) -> list[float | None]:
        return [self.policy.depth_per_replica, self.policy.shed_depth_per_replica]

    def _set_tier(self, tier: int, now: float) -> None:
        if tier == self.tier:
            return
        old, self.tier = self.tier, tier
        if old == 0 and tier >= 1:
            self._degraded_since = now
        elif old >= 1 and tier == 0 and self._degraded_since is not None:
            self.degraded_seconds += now - self._degraded_since
            self._degraded_since = None
        if self._on_transition is not None:
            self._on_transition(old, tier, now)

    def observe(self, pressure: float, now: float) -> None:
        """Fold one pressure sample into the tier state machine."""
        target = self.tier
        for level, threshold in enumerate(self._thresholds(), start=1):
            if threshold is None:
                continue
            index = level - 1
            if pressure >= threshold:
                self._below_since[index] = None
                since = self._above_since[index]
                if since is None:
                    self._above_since[index] = since = now
                if self.tier < level and now - since >= self.policy.sustain_s:
                    target = max(target, level)
            else:
                self._above_since[index] = None
                since = self._below_since[index]
                if since is None:
                    self._below_since[index] = since = now
                if self.tier >= level and now - since >= self.policy.recover_s:
                    target = min(target, level - 1)
        self._set_tier(target, now)

    def finalize(self, now: float) -> None:
        """Close the trailing degraded interval at the end of a run."""
        if self._degraded_since is not None:
            self.degraded_seconds += max(now - self._degraded_since, 0.0)
            self._degraded_since = None


@dataclass
class TrackedRequest:
    """The fleet's per-request policy bookkeeping (one per live request).

    ``primary_key`` is the replica currently executing the request;
    ``hedge_key`` and ``hedge_name`` the replica of the duplicate copy, when
    one is in flight (the name identifies which copy a completion record
    came from).  Attempts count executions (first submission = 1).
    """

    request: Request
    primary_key: int
    hedge_key: int | None = None
    hedge_name: str | None = None
    attempts: int = 1
    retry_pending: bool = False
    done: bool = False


class PolicyRuntime:
    """All resilience-policy state for one fleet run.

    Owns the sub-policy state machines (breaker bank, degrade controller,
    hedge-delay estimator, retry budgets) but none of the request plumbing —
    the fleet keeps the per-request timers and
    :class:`TrackedRequest` records, because cancellation must touch the
    engines directly.
    """

    def __init__(self, config: ResilienceSpec, *,
                 on_breaker_transition=None, on_degrade_transition=None) -> None:
        self.config = config
        self.deadline = config.deadline
        self.retry = config.retry
        self.hedge = config.hedge
        self.breakers: BreakerBank | None = None
        if config.breaker is not None:
            self.breakers = BreakerBank(
                config.breaker, on_transition=on_breaker_transition
            )
        self.degrade: DegradeController | None = None
        if config.degrade is not None:
            self.degrade = DegradeController(
                config.degrade, on_transition=on_degrade_transition
            )
        self._latency_samples: deque[float] = deque(maxlen=HEDGE_SAMPLE_WINDOW)
        #: The same samples, sorted.
        self._sorted_samples: list[float] = []
        self._tenant_retries: dict[str, int] = {}

    # ---------------------------------------------------------------- hedge

    def record_latency(self, latency: float) -> None:
        if self.hedge is None:
            return
        samples, ordered = self._latency_samples, self._sorted_samples
        if len(samples) == HEDGE_SAMPLE_WINDOW:
            # The deque is about to drop its oldest sample; drop it here too.
            del ordered[bisect.bisect_left(ordered, samples[0])]
        samples.append(latency)
        bisect.insort(ordered, latency)

    def hedge_delay(self) -> float | None:
        """Current hedge delay in seconds, or ``None`` while unavailable.

        The configured percentile of the trailing latency window, computed
        exactly as numpy's default (``linear``) :func:`numpy.quantile` does,
        bit for bit, from the sorted copy of the window.
        """
        policy = self.hedge
        if policy is None:
            return None
        if policy.delay_s is not None:
            return policy.delay_s
        ordered = self._sorted_samples
        count = len(ordered)
        if count < policy.min_samples:
            return None
        position = (count - 1) * (policy.percentile / 100.0)
        index = math.floor(position)
        gamma = position - index
        high = ordered[min(index + 1, count - 1)]
        step = high - ordered[index]
        # numpy's lerp: from the nearer end, so the weight applied is <= 0.5.
        if gamma >= 0.5:
            delay = high - step * (1 - gamma)
        else:
            delay = ordered[index] + step * gamma
        return max(delay, policy.min_delay_s)

    # ---------------------------------------------------------------- retry

    def retry_delay(self, request_id: int, attempt: int) -> float:
        """Backoff before re-execution ``attempt + 1`` of ``request_id``.

        ``attempt`` is the number of executions consumed so far (>= 1).  The
        jitter draw comes from its own ``[seed, request_id, attempt]`` RNG
        stream, so the delay is a pure function of the config and identical
        regardless of schedule interleaving.
        """
        policy = self.retry
        delay = policy.backoff_base_s * policy.backoff_multiplier ** (attempt - 1)
        if policy.jitter > 0:
            rng = np.random.default_rng([self.config.seed, request_id, attempt])
            delay *= 1.0 + policy.jitter * float(rng.random())
        return delay

    def try_consume_retry_budget(self, tenant: str | None) -> bool:
        """Consume one unit of the tenant's retry budget; False = exhausted."""
        budget = self.retry.budget_per_tenant
        if budget is None:
            return True
        used = self._tenant_retries.get(tenant or "", 0)
        if used >= budget:
            return False
        self._tenant_retries[tenant or ""] = used + 1
        return True
