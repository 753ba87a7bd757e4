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
    routing policy in use.
    """

    def __init__(self) -> None:
        self.num_admitted = 0
        self.num_shed = 0

    @abc.abstractmethod
    def check(self, request: Request, queue_depths: list[int], now: float) -> AdmissionDecision:
        """Return the admission decision for one request (no side effects)."""

    def admit(self, request: Request, queue_depths: list[int], now: float) -> AdmissionDecision:
        """Check one request and update the admitted/shed counters."""
        decision = self.check(request, queue_depths, now)
        if decision.admitted:
            self.num_admitted += 1
        else:
            self.num_shed += 1
        return decision


class QueueDepthAdmission(AdmissionPolicy):
    """Shed load when every replica's queue is full (and optionally fleet-wide).

    Args:
        max_queue_depth: A request is shed when the *least-loaded* replica
            already has this many requests waiting — i.e. there is nowhere the
            router could place it without exceeding the per-replica bound.
        max_total_depth: Optional fleet-wide bound on the summed queue depth;
            checked first when set.
    """

    def __init__(self, max_queue_depth: int, *, max_total_depth: int | None = None) -> None:
        super().__init__()
        if max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be at least 1")
        if max_total_depth is not None and max_total_depth < 1:
            raise ConfigurationError("max_total_depth must be at least 1 when set")
        self.max_queue_depth = max_queue_depth
        self.max_total_depth = max_total_depth

    def check(self, request: Request, queue_depths: list[int], now: float) -> AdmissionDecision:
        """Shed when the fleet-wide or per-replica queue bound is exhausted."""
        total = sum(queue_depths)
        if self.max_total_depth is not None and total >= self.max_total_depth:
            return AdmissionDecision(
                admitted=False,
                reason=(
                    f"admission control: fleet queue depth {total} has reached the "
                    f"limit of {self.max_total_depth}"
                ),
            )
        if queue_depths and min(queue_depths) >= self.max_queue_depth:
            return AdmissionDecision(
                admitted=False,
                reason=(
                    f"admission control: every replica has at least "
                    f"{self.max_queue_depth} requests waiting"
                ),
            )
        return ADMIT
