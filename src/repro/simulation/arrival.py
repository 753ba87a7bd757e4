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

Every process is a frozen dataclass with an explicit ``seed``, declared as a
spec model (:mod:`repro.spec.core`): building one checks each parameter
against its declared type and range, and the cross-field rules in its
``__spec_validate__``.  :func:`make_arrival` builds any of them by registry
name — the names the ``scenario`` CLI subcommand and scenario config files
use — through :func:`~repro.spec.core.from_dict`, which the scenario engine
also calls to build a tenant's process at ``tenants[i].arrival_params``.
Two runs with the same process parameters and the same request list produce
bit-identical arrival times, which is what makes recorded traces
(:mod:`repro.workloads.tracefile`) replayable.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import UnknownNameError, WorkloadSpecError
from repro.spec.core import from_dict, spec_field, spec_model
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
    "arrival_factory",
    "make_arrival",
]


class ArrivalProcess(abc.ABC):
    """Assigns arrival times to a list of requests."""

    @abc.abstractmethod
    def assign(self, requests: list[Request]) -> list[Request]:
        """Return copies of the requests with ``arrival_time`` set, sorted by
        arrival time (``requests`` itself is not modified)."""


def _rate():
    """A required arrival rate (queries per second), > 0.

    Rates and times are stored as given, with no ``float`` conversion, so
    every arrival time is bit-identical to one computed from the caller's
    own values.
    """
    return spec_field(types=(int, float), minimum=0, exclusive_minimum=True)


def _seconds(default: float, *, positive: bool = False):
    """A time in seconds: non-negative, or > 0 when ``positive``."""
    return spec_field(default=default, types=(int, float), minimum=0,
                      exclusive_minimum=positive)


def _seed():
    return spec_field(default=0, types=int, minimum=0)


def _flag(default: bool):
    return spec_field(default=default, types=bool)


def _must_exceed(process, name: str, other: str, path: str) -> None:
    """Raise unless ``process.<name>`` exceeds ``process.<other>``."""
    value, bound = getattr(process, name), getattr(process, other)
    if value <= bound:
        raise WorkloadSpecError(f"{name} ({value:g}) must exceed {other} ({bound:g})",
                                path=f"{path}.{name}")


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


@spec_model(error=WorkloadSpecError, path="arrival_params")
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

    rate: float = _rate()
    seed: int = _seed()
    shuffle: bool = _flag(True)

    def assign(self, requests: list[Request]) -> list[Request]:
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(requests)) if self.shuffle else None
        gaps = rng.exponential(1.0 / self.rate, size=len(requests))
        times = np.cumsum(gaps)
        return _sorted_copy(requests, list(times), order)


@spec_model(error=WorkloadSpecError, path="arrival_params")
@dataclass(frozen=True)
class BurstArrivalProcess(ArrivalProcess):
    """Every request arrives at the same instant (used to measure base throughput)."""

    at_time: float = _seconds(0.0)
    seed: int = _seed()
    shuffle: bool = _flag(True)

    def assign(self, requests: list[Request]) -> list[Request]:
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(requests)) if self.shuffle else None
        times = [self.at_time] * len(requests)
        return _sorted_copy(requests, times, order)


@spec_model(error=WorkloadSpecError, path="arrival_params")
@dataclass(frozen=True)
class UniformArrivalProcess(ArrivalProcess):
    """Deterministic arrivals spaced exactly ``1 / rate`` seconds apart."""

    rate: float = _rate()
    seed: int = _seed()
    shuffle: bool = _flag(False)

    def assign(self, requests: list[Request]) -> list[Request]:
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(requests)) if self.shuffle else None
        spacing = 1.0 / self.rate
        times = [spacing * (index + 1) for index in range(len(requests))]
        return _sorted_copy(requests, times, order)


@spec_model(error=WorkloadSpecError, path="arrival_params")
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

    base_rate: float = _rate()
    burst_rate: float = _rate()
    mean_quiet_seconds: float = _seconds(30.0, positive=True)
    mean_burst_seconds: float = _seconds(5.0, positive=True)
    start_bursting: bool = _flag(False)
    seed: int = _seed()
    shuffle: bool = _flag(True)

    def __spec_validate__(self, path: str) -> None:
        _must_exceed(self, "burst_rate", "base_rate", path)

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


@spec_model(error=WorkloadSpecError, path="arrival_params")
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

    mean_rate: float = _rate()
    period_seconds: float = _seconds(600.0, positive=True)
    amplitude: float = spec_field(default=0.8, types=(int, float), minimum=0)
    phase: float = spec_field(default=0.0, types=(int, float))
    seed: int = _seed()
    shuffle: bool = _flag(True)

    def __spec_validate__(self, path: str) -> None:
        # An exclusive maximum: at 1 the trough rate is 0.
        if self.amplitude >= 1:
            raise WorkloadSpecError(f"amplitude must be below 1, got {self.amplitude:g}",
                                    path=f"{path}.amplitude")

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


@spec_model(error=WorkloadSpecError, path="arrival_params")
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

    base_rate: float = _rate()
    spike_rate: float = _rate()
    first_spike_at: float = _seconds(30.0)
    spike_seconds: float = _seconds(10.0, positive=True)
    spike_interval_seconds: float = _seconds(0.0)
    seed: int = _seed()
    shuffle: bool = _flag(True)

    def __spec_validate__(self, path: str) -> None:
        _must_exceed(self, "spike_rate", "base_rate", path)
        if self.spike_interval_seconds > 0:
            _must_exceed(self, "spike_interval_seconds", "spike_seconds", path)

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


@spec_model(error=WorkloadSpecError, path="arrival_params")
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

    num_clients: int = spec_field(types=int, minimum=1)
    mean_think_seconds: float = _seconds(1.0, positive=True)
    service_estimate_seconds: float = _seconds(0.5)
    seed: int = _seed()
    shuffle: bool = _flag(True)

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


def arrival_factory(name: str) -> type:
    """The arrival process registered under ``name``.

    Raises:
        UnknownNameError: if ``name`` is not registered.
    """
    try:
        return ARRIVAL_FACTORIES[name]
    except KeyError:
        raise UnknownNameError("arrival process", name, list_arrivals()) from None


def make_arrival(name: str, **params) -> ArrivalProcess:
    """Construct an arrival process by registry name.

    Args:
        name: One of :func:`list_arrivals`.
        **params: The process's parameters (e.g. ``rate=5.0, seed=3``).

    Raises:
        UnknownNameError: if ``name`` is not registered.
        WorkloadSpecError: if ``params`` name an unknown parameter or fail
            the process's declaration, at ``arrival_params.<key>``.
    """
    return from_dict(arrival_factory(name), params)
