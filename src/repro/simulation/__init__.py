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

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.simulation.arrival": (
        "ARRIVAL_FACTORIES", "ArrivalProcess", "BurstArrivalProcess", "ClosedLoopArrivalProcess",
        "DiurnalArrivalProcess", "FlashCrowdArrivalProcess", "MMPPArrivalProcess",
        "PoissonArrivalProcess", "UniformArrivalProcess", "list_arrivals", "make_arrival",
    ),
    "repro.simulation.events": ("EventQueue",),
    "repro.simulation.routing": (
        "LeastLoadedRouter", "PrefixAffinityRouter", "Router", "UserIdRouter", "make_router",
    ),
    "repro.simulation.metrics": (
        "FleetSummary", "LatencySummary", "TierSummary", "summarize_finished", "summarize_fleet",
        "summarize_tiers",
    ),
    "repro.simulation.scenario": (
        "ScenarioResult", "ScenarioSpec", "TenantReport", "load_scenario", "replay_scenario",
        "run_scenario", "scenario_from_dict",
    ),
    "repro.simulation.server": ("ServingSystem",),
    "repro.simulation.simulator": (
        "FleetSimulationResult", "SimulationResult", "simulate", "simulate_fleet",
    ),
})
