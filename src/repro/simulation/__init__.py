"""Serving substrate: the discrete-event simulation of an online serving system.

The paper evaluates PrefillOnly as an online service: requests arrive as a
Poisson process, a router spreads users across engine instances, each instance
schedules and executes requests, and the evaluation reports latency percentiles
and throughput as functions of the offered queries per second.  This package
provides those pieces, plus the scenario machinery that goes beyond the
paper's evaluation grid:

* :mod:`repro.simulation.arrival`  — arrival processes: the paper's Poisson /
  burst / uniform, plus bursty MMPP, diurnal sinusoid, flash-crowd spikes,
  and think-time closed-loop clients, all constructible by name through
  :func:`make_arrival`;
* :mod:`repro.simulation.routing`  — user-id, least-loaded, and
  prefix-affinity routing policies;
* :mod:`repro.simulation.server`   — the paper's serving system, a
  :class:`~repro.cluster.fleet.Fleet` preset (one instance per GPU behind a
  user-id router);
* :mod:`repro.simulation.events`   — the heap-based
  :class:`~repro.simulation.events.EventQueue` the fleet finds due replicas
  with;
* :mod:`repro.simulation.simulator` — the event loop (:func:`simulate_fleet`
  for any :class:`~repro.cluster.fleet.Fleet`, and :func:`simulate`, its
  single-system result for a serving system);
* :mod:`repro.simulation.scenario` — the scenario engine: JSON-config
  multi-tenant scenarios with per-tenant SLO reporting and bit-for-bit trace
  record/replay (``prefillonly scenario`` on the command line,
  ``docs/SCENARIOS.md`` for the cookbook);
* :mod:`repro.simulation.metrics`  — latency / throughput / hit-rate summaries
  plus the fleet-level :class:`FleetSummary`.
"""

from repro.simulation.arrival import (
    ARRIVAL_FACTORIES,
    ArrivalProcess,
    BurstArrivalProcess,
    ClosedLoopArrivalProcess,
    DiurnalArrivalProcess,
    FlashCrowdArrivalProcess,
    MMPPArrivalProcess,
    PoissonArrivalProcess,
    UniformArrivalProcess,
    list_arrivals,
    make_arrival,
)
from repro.simulation.events import EventQueue
from repro.simulation.routing import (
    LeastLoadedRouter,
    PrefixAffinityRouter,
    Router,
    UserIdRouter,
    make_router,
)
from repro.simulation.metrics import (
    FleetSummary,
    LatencySummary,
    TierSummary,
    summarize_finished,
    summarize_fleet,
    summarize_tiers,
)
from repro.simulation.scenario import (
    ScenarioResult,
    ScenarioSpec,
    TenantReport,
    load_scenario,
    replay_scenario,
    run_scenario,
    scenario_from_dict,
)
from repro.simulation.server import ServingSystem
from repro.simulation.simulator import (
    FleetSimulationResult,
    SimulationResult,
    simulate,
    simulate_fleet,
)

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
    "EventQueue",
    "Router",
    "UserIdRouter",
    "LeastLoadedRouter",
    "PrefixAffinityRouter",
    "make_router",
    "LatencySummary",
    "FleetSummary",
    "TierSummary",
    "summarize_finished",
    "summarize_fleet",
    "summarize_tiers",
    "ServingSystem",
    "SimulationResult",
    "FleetSimulationResult",
    "simulate",
    "simulate_fleet",
    "ScenarioSpec",
    "ScenarioResult",
    "TenantReport",
    "scenario_from_dict",
    "load_scenario",
    "run_scenario",
    "replay_scenario",
]
