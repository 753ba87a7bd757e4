"""Queue-depth-based admission control with load shedding.

A production fleet cannot let queues grow without bound: past the saturation
point every admitted request only pushes P99 latency further out while
delivering no extra goodput.  The fleet therefore consults an
:class:`AdmissionPolicy` *before* routing; a shed request is recorded as a
rejection (with an ``admission control:`` reason) and never reaches an engine.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.workloads.trace import Request


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    Attributes:
        admitted: Whether the request may be routed to a replica.
        reason: Human-readable shed reason when ``admitted`` is False.
    """

    admitted: bool
    reason: str | None = None


ADMIT = AdmissionDecision(admitted=True)


class AdmissionPolicy(abc.ABC):
    """Decides whether the fleet accepts a request at all.

    Policies see the fleet's current queue depths, not individual replicas'
    internals; they run before routing, so shedding is independent of the
    routing policy in use.  The fleet counts what it sheds itself.
    """

    @abc.abstractmethod
    def check(self, request: Request, queue_depths: list[int], now: float) -> AdmissionDecision:
        """Return the admission decision for one request (no side effects)."""

    def admit(self, request: Request, queue_depths: list[int], now: float) -> AdmissionDecision:
        """Return the admission decision for one request (what the fleet calls)."""
        # A plain forward to check(); it stays because the benchmark tracer
        # counts admission calls through this name (``cluster.admit.calls``).
        return self.check(request, queue_depths, now)


class QueueDepthAdmission(AdmissionPolicy):
    """Shed load when every replica's queue is full.

    Args:
        max_queue_depth: A request is shed when the *least-loaded* replica
            already has this many requests waiting — i.e. there is nowhere the
            router could place it without exceeding the per-replica bound.
    """

    def __init__(self, max_queue_depth: int) -> None:
        if max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be at least 1")
        self.max_queue_depth = max_queue_depth

    def check(self, request: Request, queue_depths: list[int], now: float) -> AdmissionDecision:
        """Shed when the per-replica queue bound is exhausted everywhere."""
        if queue_depths and min(queue_depths) >= self.max_queue_depth:
            return AdmissionDecision(
                admitted=False,
                reason=(
                    f"admission control: every replica has at least "
                    f"{self.max_queue_depth} requests waiting"
                ),
            )
        return ADMIT
