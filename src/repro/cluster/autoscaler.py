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

import math
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError


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
        min_replicas / max_replicas: Hard bounds on the active replica count.
        scale_up_rps_per_replica: Grow when the windowed arrival rate divided
            by the current replica count exceeds this; shrink when it falls
            below half of it (``scale_down_rps_per_replica``) and every queue
            is empty.
        window_seconds: Length of the sliding observation window.
        cooldown_seconds: Minimum time between two scale events.
    """

    def __init__(self, min_replicas: int = 1, max_replicas: int = 8, *,
                 scale_up_rps_per_replica: float,
                 window_seconds: float = 30.0,
                 cooldown_seconds: float = 60.0) -> None:
        for name, value in (("scale_up_rps_per_replica", scale_up_rps_per_replica),
                            ("window_seconds", window_seconds),
                            ("cooldown_seconds", cooldown_seconds)):
            # NaN passes every range comparison below.
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        if min_replicas < 1:
            raise ConfigurationError("min_replicas must be at least 1")
        if max_replicas < min_replicas:
            raise ConfigurationError("max_replicas must be >= min_replicas")
        if scale_up_rps_per_replica <= 0:
            raise ConfigurationError("scale_up_rps_per_replica must be positive")
        if window_seconds <= 0 or cooldown_seconds < 0:
            raise ConfigurationError("window/cooldown durations must be positive")
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.scale_up_rps_per_replica = scale_up_rps_per_replica
        self.scale_down_rps_per_replica = scale_up_rps_per_replica / 2.0
        self.window_seconds = window_seconds
        self.cooldown_seconds = cooldown_seconds
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
        horizon = now - self.window_seconds
        while self._arrivals and self._arrivals[0] < horizon:
            self._arrivals.popleft()

    # --------------------------------------------------------------- signals

    def arrival_rate(self, now: float) -> float:
        """Windowed arrival rate in requests per second."""
        self._trim(now)
        effective_window = min(self.window_seconds, now) or self.window_seconds
        return len(self._arrivals) / effective_window

    # --------------------------------------------------------------- decision

    def decide(self, now: float, num_replicas: int, queue_depths: list[int]) -> int:
        """Vote +1/-1/0 from the windowed rate, respecting hysteresis."""
        if now < self.window_seconds:
            # Warm-up: a near-empty window makes count/elapsed wildly noisy in
            # both directions (one early arrival reads as a huge rate; no early
            # arrival reads as idleness).  Hold until the window has filled.
            return 0
        if now - self._last_scale_time < self.cooldown_seconds:
            return 0
        rate = self.arrival_rate(now)
        per_replica = rate / max(num_replicas, 1)

        if num_replicas < self.max_replicas and per_replica > self.scale_up_rps_per_replica:
            self.last_reason = (
                f"arrival rate {rate:.2f} rps = {per_replica:.2f} rps/replica "
                f"> {self.scale_up_rps_per_replica:.2f}"
            )
            self._last_scale_time = now
            return 1

        if (num_replicas > self.min_replicas
                and per_replica < self.scale_down_rps_per_replica
                and sum(queue_depths) == 0):
            self.last_reason = (
                f"arrival rate {rate:.2f} rps = {per_replica:.2f} rps/replica "
                f"< {self.scale_down_rps_per_replica:.2f} and queues are empty"
            )
            self._last_scale_time = now
            return -1
        return 0
