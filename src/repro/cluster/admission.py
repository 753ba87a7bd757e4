"""Queue-depth-based admission control with load shedding.

A production fleet cannot let queues grow without bound: past the saturation
point every admitted request only pushes P99 latency further out while
delivering no extra goodput.  The fleet therefore consults an
:class:`AdmissionPolicy` *before* routing; a shed request is recorded as a
rejection (with an ``admission control:`` reason) and never reaches an engine.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.workloads.trace import Request


class AdmissionPolicy:
    """Shed load when every replica's queue is full.

    The policy sees the fleet's current queue depths, not individual
    replicas' internals; it runs before routing, so shedding is independent
    of the routing policy in use.  The fleet counts what it sheds itself.

    Args:
        max_queue_depth: A request is shed when the *least-loaded* replica
            already has this many requests waiting — i.e. there is nowhere the
            router could place it without exceeding the per-replica bound.
    """

    def __init__(self, max_queue_depth: int) -> None:
        if max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be at least 1")
        self.max_queue_depth = max_queue_depth

    def admit(self, request: Request, queue_depths: list[int], now: float) -> str | None:
        """The shed reason for one request, or None to admit it (no side effects)."""
        if queue_depths and min(queue_depths) >= self.max_queue_depth:
            return (
                f"admission control: every replica has at least "
                f"{self.max_queue_depth} requests waiting"
            )
        return None
