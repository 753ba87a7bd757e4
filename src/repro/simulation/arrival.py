"""Request arrival processes.

The paper assumes Poisson arrivals and sweeps the rate to vary the offered
queries per second (§7.1).  It also determines each engine's base throughput by
sending the whole trace at once ("all requests coming at once"), which the
:class:`BurstArrivalProcess` reproduces.  On top of those, this module provides
the traffic shapes a production fleet actually sees, so the simulator and the
cluster layer can be exercised well beyond the paper's evaluation grid:

* :class:`PoissonArrivalProcess`   — memoryless arrivals at a fixed rate;
* :class:`BurstArrivalProcess`     — everything at once (base throughput);
* :class:`UniformArrivalProcess`   — deterministic spacing, for exact tests;
* :class:`MMPPArrivalProcess`      — bursty traffic: a two-state Markov-modulated
  Poisson process that alternates between a quiet rate and a burst rate;
* :class:`DiurnalArrivalProcess`   — a sinusoidal day/night rate curve,
  generated by Lewis-Shedler thinning;
* :class:`FlashCrowdArrivalProcess` — a baseline rate with one or more
  flash-crowd spikes at a multiplied rate;
* :class:`ClosedLoopArrivalProcess` — N clients that each wait a think time
  between consecutive requests (an open-loop approximation of a closed loop:
  the response time is modelled by a fixed per-request estimate, because
  arrival times are assigned before the simulation runs).

Every process is a frozen dataclass with an explicit ``seed``, and
:func:`make_arrival` builds any of them by registry name — the names the
``scenario`` CLI subcommand and scenario config files use.  Two runs with the
same process parameters and the same request list produce bit-identical
arrival times, which is what makes recorded traces
(:mod:`repro.workloads.tracefile`) replayable.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, fields

import numpy as np

from repro.errors import UnknownNameError, WorkloadError
from repro.workloads.trace import Request

__all__ = [
    "ArrivalProcess",
    "PoissonArrivalProcess",
    "BurstArrivalProcess",
    "UniformArrivalProcess",
    "MMPPArrivalProcess",
    "DiurnalArrivalProcess",
    "FlashCrowdArrivalProcess",
    "ClosedLoopArrivalProcess",
    "ARRIVAL_FACTORIES",
    "list_arrivals",
    "make_arrival",
]


class ArrivalProcess(abc.ABC):
    """Assigns arrival times to a list of requests."""

    @abc.abstractmethod
    def assign(self, requests: list[Request]) -> list[Request]:
        """Return copies of the requests with ``arrival_time`` set, sorted by
        arrival time (``requests`` itself is not modified)."""


def _require_finite(process: ArrivalProcess) -> None:
    """Reject NaN and infinite parameters, which pass every ``<=`` range check."""
    for field in fields(process):
        value = getattr(process, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise WorkloadError(f"{field.name} must be a finite number, got {value!r}")


def _sorted_copy(requests: list[Request], times: list[float],
                 order: np.ndarray | None = None) -> list[Request]:
    """Copies of ``requests`` (optionally reordered) carrying ``times``, sorted
    by time; the caller's requests are left as they are."""
    if order is not None:
        requests = [requests[i] for i in order]
    timed = [
        Request(request.request_id, request.user_id, request.sequence,
                request.allowed_outputs, float(time), request.metadata)
        for request, time in zip(requests, times)
    ]
    return sorted(timed, key=lambda r: (r.arrival_time, r.request_id))


@dataclass(frozen=True)
class PoissonArrivalProcess(ArrivalProcess):
    """Poisson arrivals at ``rate`` requests per second.

    Attributes:
        rate: Mean arrival rate (queries per second).
        seed: RNG seed (controls both inter-arrival gaps and request order).
        shuffle: Randomise the request order before assigning times, so that
            one user's 50 requests are interleaved with other users' the way an
            online service would see them.
    """

    rate: float
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.rate <= 0:
            raise WorkloadError("arrival rate must be positive")

    def assign(self, requests: list[Request]) -> list[Request]:
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(requests)) if self.shuffle else None
        gaps = rng.exponential(1.0 / self.rate, size=len(requests))
        times = np.cumsum(gaps)
        return _sorted_copy(requests, list(times), order)


@dataclass(frozen=True)
class BurstArrivalProcess(ArrivalProcess):
    """Every request arrives at the same instant (used to measure base throughput)."""

    at_time: float = 0.0
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.at_time < 0:
            raise WorkloadError("at_time must be non-negative")

    def assign(self, requests: list[Request]) -> list[Request]:
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(requests)) if self.shuffle else None
        times = [self.at_time] * len(requests)
        return _sorted_copy(requests, times, order)


@dataclass(frozen=True)
class UniformArrivalProcess(ArrivalProcess):
    """Deterministic arrivals spaced exactly ``1 / rate`` seconds apart."""

    rate: float
    seed: int = 0
    shuffle: bool = False

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.rate <= 0:
            raise WorkloadError("arrival rate must be positive")

    def assign(self, requests: list[Request]) -> list[Request]:
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(requests)) if self.shuffle else None
        spacing = 1.0 / self.rate
        times = [spacing * (index + 1) for index in range(len(requests))]
        return _sorted_copy(requests, times, order)


@dataclass(frozen=True)
class MMPPArrivalProcess(ArrivalProcess):
    """Bursty arrivals: a two-state Markov-modulated Poisson process.

    The process alternates between a *quiet* state emitting at ``base_rate``
    and a *burst* state emitting at ``burst_rate``; dwell times in each state
    are exponential with the given means.  The result is the on/off burstiness
    that a fixed-rate Poisson process cannot produce — sustained minutes of
    calm punctuated by request storms — which is what stresses admission
    control and autoscaling.

    Attributes:
        base_rate: Arrival rate (qps) while quiet.
        burst_rate: Arrival rate (qps) while bursting (must exceed ``base_rate``).
        mean_quiet_seconds: Mean dwell time in the quiet state.
        mean_burst_seconds: Mean dwell time in the burst state.
        start_bursting: Begin in the burst state instead of the quiet state.
        seed: RNG seed.
        shuffle: Randomise the request order before assigning times.
    """

    base_rate: float
    burst_rate: float
    mean_quiet_seconds: float = 30.0
    mean_burst_seconds: float = 5.0
    start_bursting: bool = False
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.base_rate <= 0 or self.burst_rate <= 0:
            raise WorkloadError("arrival rate must be positive")
        if self.burst_rate <= self.base_rate:
            raise WorkloadError("burst_rate must exceed base_rate")
        if self.mean_quiet_seconds <= 0 or self.mean_burst_seconds <= 0:
            raise WorkloadError("state dwell times must be positive")

    def assign(self, requests: list[Request]) -> list[Request]:
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(requests)) if self.shuffle else None
        bursting = self.start_bursting
        now = 0.0
        state_end = now + rng.exponential(
            self.mean_burst_seconds if bursting else self.mean_quiet_seconds
        )
        times: list[float] = []
        while len(times) < len(requests):
            rate = self.burst_rate if bursting else self.base_rate
            candidate = now + rng.exponential(1.0 / rate)
            if candidate > state_end:
                # No arrival before the state flips; restart the (memoryless)
                # exponential clock from the switch point in the new state.
                now = state_end
                bursting = not bursting
                state_end = now + rng.exponential(
                    self.mean_burst_seconds if bursting else self.mean_quiet_seconds
                )
                continue
            now = candidate
            times.append(now)
        return _sorted_copy(requests, times, order)


@dataclass(frozen=True)
class DiurnalArrivalProcess(ArrivalProcess):
    """Sinusoidal day/night arrivals via Lewis-Shedler thinning.

    The instantaneous rate is ``mean_rate * (1 + amplitude * sin(2π t /
    period_seconds + phase))``, so over one full period the mean offered load
    is ``mean_rate`` while the peak-to-trough ratio is
    ``(1 + amplitude) / (1 - amplitude)``.

    Attributes:
        mean_rate: Mean arrival rate (qps) over a full period.
        period_seconds: Length of one rate cycle (a "day").
        amplitude: Modulation depth in ``[0, 1)``; ``0`` degenerates to Poisson.
        phase: Phase offset in radians (``-π/2`` starts at the trough).
        seed: RNG seed.
        shuffle: Randomise the request order before assigning times.
    """

    mean_rate: float
    period_seconds: float = 600.0
    amplitude: float = 0.8
    phase: float = 0.0
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.mean_rate <= 0:
            raise WorkloadError("arrival rate must be positive")
        if not 0 <= self.amplitude < 1:
            raise WorkloadError("amplitude must be in [0, 1)")
        if self.period_seconds <= 0:
            raise WorkloadError("period_seconds must be positive")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at simulated time ``t``."""
        return self.mean_rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period_seconds + self.phase)
        )

    def assign(self, requests: list[Request]) -> list[Request]:
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(requests)) if self.shuffle else None
        max_rate = self.mean_rate * (1.0 + self.amplitude)
        now = 0.0
        times: list[float] = []
        while len(times) < len(requests):
            now += rng.exponential(1.0 / max_rate)
            if rng.uniform() * max_rate <= self.rate_at(now):
                times.append(now)
        return _sorted_copy(requests, times, order)


@dataclass(frozen=True)
class FlashCrowdArrivalProcess(ArrivalProcess):
    """Baseline Poisson traffic with one or more flash-crowd spikes.

    The rate is piecewise constant: ``base_rate`` everywhere except inside
    spike windows, where it jumps to ``spike_rate``.  The first spike starts at
    ``first_spike_at`` and lasts ``spike_seconds``; further spikes repeat every
    ``spike_interval_seconds``.

    Attributes:
        base_rate: Steady-state arrival rate (qps).
        spike_rate: Arrival rate inside a spike (must exceed ``base_rate``).
        first_spike_at: Start time of the first spike (seconds).
        spike_seconds: Duration of each spike.
        spike_interval_seconds: Start-to-start gap between spikes (``0`` for a
            single spike).
        seed: RNG seed.
        shuffle: Randomise the request order before assigning times.
    """

    base_rate: float
    spike_rate: float
    first_spike_at: float = 30.0
    spike_seconds: float = 10.0
    spike_interval_seconds: float = 0.0
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.base_rate <= 0 or self.spike_rate <= 0:
            raise WorkloadError("arrival rate must be positive")
        if self.spike_rate <= self.base_rate:
            raise WorkloadError("spike_rate must exceed base_rate")
        if self.spike_seconds <= 0:
            raise WorkloadError("spike_seconds must be positive")
        if self.first_spike_at < 0:
            raise WorkloadError("first_spike_at must be non-negative")
        if 0 < self.spike_interval_seconds <= self.spike_seconds:
            raise WorkloadError("spike_interval_seconds must exceed spike_seconds")

    def _in_spike(self, t: float) -> bool:
        if t < self.first_spike_at:
            return False
        offset = t - self.first_spike_at
        if self.spike_interval_seconds > 0:
            offset %= self.spike_interval_seconds
        return offset < self.spike_seconds

    def _next_boundary(self, t: float) -> float:
        """Time of the next rate change at or after ``t``."""
        if t < self.first_spike_at:
            return self.first_spike_at
        offset = t - self.first_spike_at
        if self.spike_interval_seconds > 0:
            cycle, offset = divmod(offset, self.spike_interval_seconds)
            base = self.first_spike_at + cycle * self.spike_interval_seconds
            if offset < self.spike_seconds:
                return base + self.spike_seconds
            return base + self.spike_interval_seconds
        if offset < self.spike_seconds:
            return self.first_spike_at + self.spike_seconds
        return math.inf

    def assign(self, requests: list[Request]) -> list[Request]:
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(requests)) if self.shuffle else None
        now = 0.0
        times: list[float] = []
        while len(times) < len(requests):
            rate = self.spike_rate if self._in_spike(now) else self.base_rate
            candidate = now + rng.exponential(1.0 / rate)
            boundary = self._next_boundary(now)
            if candidate > boundary:
                # The rate changes first; restart the memoryless clock there.
                now = boundary
                continue
            now = candidate
            times.append(now)
        return _sorted_copy(requests, times, order)


@dataclass(frozen=True)
class ClosedLoopArrivalProcess(ArrivalProcess):
    """N closed-loop clients, each pausing a think time between requests.

    Requests are dealt round-robin to ``num_clients`` clients.  Each client
    issues its requests sequentially: request *k+1* goes out
    ``service_estimate_seconds`` (the stand-in for the previous response time)
    plus an exponential think time after request *k*.  This is the standard
    open-loop approximation of a closed loop — a true closed loop needs the
    simulator to feed completion times back into the arrival process, which a
    pre-assigned trace cannot do, so the response time is a fixed estimate
    instead.  With an accurate estimate the offered load self-limits at
    ``num_clients / (service_estimate_seconds + mean_think_seconds)`` qps, the
    closed-loop saturation behaviour the open processes cannot express.

    Attributes:
        num_clients: Number of concurrent clients.
        mean_think_seconds: Mean exponential think time between a response and
            the client's next request.
        service_estimate_seconds: Assumed response time of every request.
        seed: RNG seed.
        shuffle: Randomise which requests each client gets.
    """

    num_clients: int
    mean_think_seconds: float = 1.0
    service_estimate_seconds: float = 0.5
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.num_clients <= 0:
            raise WorkloadError("num_clients must be positive")
        if self.mean_think_seconds <= 0:
            raise WorkloadError("mean_think_seconds must be positive")
        if self.service_estimate_seconds < 0:
            raise WorkloadError("service_estimate_seconds must be non-negative")

    def assign(self, requests: list[Request]) -> list[Request]:
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(requests)) if self.shuffle else None
        clocks = [0.0] * self.num_clients
        times: list[float] = []
        for index in range(len(requests)):
            client = index % self.num_clients
            clocks[client] += rng.exponential(self.mean_think_seconds)
            times.append(clocks[client])
            clocks[client] += self.service_estimate_seconds
        return _sorted_copy(requests, times, order)


#: Registry of arrival-process factories by CLI / scenario-config name.
ARRIVAL_FACTORIES = {
    "poisson": PoissonArrivalProcess,
    "burst": BurstArrivalProcess,
    "uniform": UniformArrivalProcess,
    "mmpp": MMPPArrivalProcess,
    "diurnal": DiurnalArrivalProcess,
    "flash-crowd": FlashCrowdArrivalProcess,
    "closed-loop": ClosedLoopArrivalProcess,
}


def list_arrivals() -> list[str]:
    """Names of the registered arrival processes."""
    return sorted(ARRIVAL_FACTORIES)


def make_arrival(name: str, **params) -> ArrivalProcess:
    """Construct an arrival process by registry name.

    Args:
        name: One of :func:`list_arrivals`.
        **params: The process's dataclass fields (e.g. ``rate=5.0, seed=3``).

    Raises:
        UnknownNameError: if ``name`` is not registered.
        WorkloadError: if ``params`` are invalid for the process, or name an
            unknown field.
    """
    try:
        factory = ARRIVAL_FACTORIES[name]
    except KeyError:
        raise UnknownNameError("arrival process", name, list_arrivals()) from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise WorkloadError(f"invalid parameters for arrival process {name!r}: {exc}") from None
