"""Reactive autoscaling from the observed arrival rate.

The autoscaler counts arrivals over a sliding window and votes to add or
remove one replica at a time from the windowed arrival rate per replica.  Two
mechanisms prevent flapping:

* **a hysteresis band**: the per-replica arrival rate must exceed
  ``scale_up_rps_per_replica`` to grow but fall below half of it to shrink,
  so a steady load that lands between the two produces no events at all;
* **a cooldown**: after any scale event the autoscaler stays silent for
  ``cooldown_seconds`` so the fleet can observe the effect of the previous
  decision before making another.

It also holds all decisions until one full window of simulated time has
elapsed, because rate estimates over a nearly empty window are noise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.spec.models import AutoscaleSpec


@dataclass(frozen=True)
class ScaleEvent:
    """Record of one applied scale decision.

    Attributes:
        time: Simulated time of the event.
        direction: ``"up"`` or ``"down"``.
        num_replicas: Active replica count *after* the event.
        reason: Why the autoscaler voted this way.
    """

    time: float
    direction: str
    num_replicas: int
    reason: str

    def as_dict(self) -> dict:
        """Plain-dict view for report tables."""
        return {
            "time_s": round(self.time, 3),
            "direction": self.direction,
            "num_replicas": self.num_replicas,
            "reason": self.reason,
        }


class ReactiveAutoscaler:
    """Threshold autoscaler over the windowed arrival rate, with hysteresis.

    The fleet feeds it every arrival through :meth:`observe_arrival`, then
    calls :meth:`decide` after each simulation event; the vote is +1 (add a
    replica), -1 (remove one) or 0 (hold).  The fleet applies the vote
    (subject to its own bounds) and records a :class:`ScaleEvent`.

    Args:
        spec: The bounds and thresholds, validated by the spec layer
            (:func:`repro.spec.core.from_dict`): the replica-count bounds, the
            per-replica arrival rate above which it grows (it shrinks below
            half of it, ``scale_down_rps_per_replica``, when every queue is
            empty), the sliding window and the cooldown between two events.
    """

    def __init__(self, spec: AutoscaleSpec) -> None:
        self.spec = spec
        self.scale_down_rps_per_replica = spec.scale_up_rps_per_replica / 2.0
        #: Human-readable explanation of the most recent non-zero vote.
        self.last_reason = ""
        self._arrivals: deque[float] = deque()
        self._last_scale_time = -float("inf")

    # ------------------------------------------------------------ observation

    def observe_arrival(self, now: float) -> None:
        """Record one arrival timestamp into the sliding window."""
        self._arrivals.append(now)
        self._trim(now)

    def _trim(self, now: float) -> None:
        horizon = now - self.spec.window_seconds
        while self._arrivals and self._arrivals[0] < horizon:
            self._arrivals.popleft()

    # --------------------------------------------------------------- signals

    def arrival_rate(self, now: float) -> float:
        """Windowed arrival rate in requests per second."""
        self._trim(now)
        window = self.spec.window_seconds
        return len(self._arrivals) / (min(window, now) or window)

    # --------------------------------------------------------------- decision

    def decide(self, now: float, num_replicas: int, queue_depths: list[int]) -> int:
        """Vote +1/-1/0 from the windowed rate, respecting hysteresis."""
        spec = self.spec
        if now < spec.window_seconds:
            # Warm-up: a near-empty window makes count/elapsed wildly noisy in
            # both directions (one early arrival reads as a huge rate; no early
            # arrival reads as idleness).  Hold until the window has filled.
            return 0
        if now - self._last_scale_time < spec.cooldown_seconds:
            return 0
        rate = self.arrival_rate(now)
        per_replica = rate / max(num_replicas, 1)

        if num_replicas < spec.max_replicas and per_replica > spec.scale_up_rps_per_replica:
            self.last_reason = (
                f"arrival rate {rate:.2f} rps = {per_replica:.2f} rps/replica "
                f"> {spec.scale_up_rps_per_replica:.2f}"
            )
            self._last_scale_time = now
            return 1

        if (num_replicas > spec.min_replicas
                and per_replica < self.scale_down_rps_per_replica
                and sum(queue_depths) == 0):
            self.last_reason = (
                f"arrival rate {rate:.2f} rps = {per_replica:.2f} rps/replica "
                f"< {self.scale_down_rps_per_replica:.2f} and queues are empty"
            )
            self._last_scale_time = now
            return -1
        return 0
