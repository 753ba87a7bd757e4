"""The discrete-event simulation loop.

:func:`simulate_fleet` replays a list of requests (with arrival times already
assigned by an arrival process) against a :class:`~repro.cluster.fleet.Fleet`
and returns every completion record plus the aggregate and fleet summaries.
The loop is an event merge over up to four sources — the next request
arrival, the fleet's earliest internal engine event (a pipeline stage
finishing), the next fault of an optional chaos schedule, and the next
resilience-policy timer — whichever comes first.  Each replica advances on its
own clock (only replicas whose next event is due move at all), found through
the fleet's :class:`~repro.simulation.events.EventQueue`, so an event costs
O(log replicas) rather than a scan over every replica; after every event the
fleet's autoscaler gets a chance to add or drain a replica.  That loop,
:func:`run_event_loop`, is the only one: each shard of the decoupled sharded
engine (:mod:`repro.simulation.sharded`) runs it on a sub-fleet of its
replicas.

:func:`simulate` is the paper-figure entry point: a
:class:`~repro.simulation.server.ServingSystem` is the fleet the paper's
deployment rule builds, so it runs through the same loop and only reduces the
result to the single-system :class:`SimulationResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.engine import FinishedRequest
from repro.errors import ConfigurationError, SimulationError
from repro.obs.recorder import ObsData
from repro.simulation.events import EventQueue
from repro.simulation.metrics import (
    FleetSummary,
    LatencySummary,
    summarize_finished,
    summarize_fleet,
)
from repro.simulation.server import ServingSystem
from repro.workloads.trace import Request


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one simulation run.

    ``num_events`` counts the *processed* simulation events — one per request
    arrival plus one per instance advanced on an internal event — exactly as
    :class:`FleetSimulationResult` does, since both come from the fleet loop.
    """

    engine_name: str
    finished: list[FinishedRequest]
    rejected: list[FinishedRequest]
    summary: LatencySummary
    cache_stats: list[dict] = field(default_factory=list)
    num_events: int = 0

    @property
    def num_finished(self) -> int:
        return len(self.finished)

    @property
    def num_rejected(self) -> int:
        return len(self.rejected)


def simulate(system: ServingSystem, requests: list[Request], *,
             max_simulated_seconds: float = 1e7,
             max_events: int = 10_000_000) -> SimulationResult:
    """Replay ``requests`` against ``system`` until everything drains.

    Runs :func:`simulate_fleet` on the system and keeps the single-system
    fields of its result.

    Args:
        system: The serving system under test.
        requests: Requests with ``arrival_time`` assigned, in any order.
        max_simulated_seconds: Safety limit on simulated time.
        max_events: Safety limit on processed events.

    Raises:
        SimulationError: if either safety limit is hit (which indicates a bug
            in an engine's event logic, not a legitimate overload).
    """
    result = simulate_fleet(system, requests,
                            max_simulated_seconds=max_simulated_seconds,
                            max_events=max_events)
    return SimulationResult(
        engine_name=system.name,
        finished=result.finished,
        rejected=result.rejected,
        summary=result.summary,
        cache_stats=result.cache_stats,
        num_events=result.num_events,
    )


@dataclass
class FleetSimulationResult:
    """Everything a benchmark needs from one fleet simulation run.

    ``rejected`` contains engine-level rejections *and* admission-control
    sheds; ``shed`` is the admission-control subset on its own.

    ``num_events`` counts processed events — one per arrival, one per replica
    advanced on an internal event, one per delivered fault and one per
    policy-timer batch.
    """

    fleet_name: str
    finished: list[FinishedRequest]
    rejected: list[FinishedRequest]
    shed: list[FinishedRequest]
    summary: LatencySummary
    fleet: FleetSummary
    cache_stats: list[dict] = field(default_factory=list)
    num_events: int = 0
    #: What a ``shards > 1`` run asked for and how it executed (mode, shard
    #: count, workers, executor, per-shard seeds) — ``None`` on unsharded
    #: runs.  Deliberately excluded from
    #: :func:`~repro.simulation.invariants.scenario_fingerprint`: a sharded
    #: run is byte-identical to the unsharded path *except* for this record.
    sharding: dict | None = None
    #: The run's frozen observability record, or ``None`` when the fleet ran
    #: with the null recorder.  Excluded from the scenario fingerprint by the
    #: same argument as ``sharding``: recording observes the run, it is not
    #: part of the result.
    obs: ObsData | None = None

    @property
    def num_finished(self) -> int:
        return len(self.finished)

    @property
    def num_rejected(self) -> int:
        return len(self.rejected)

    @property
    def num_shed(self) -> int:
        return len(self.shed)


def simulate_fleet(fleet, requests: list[Request], *,
                   max_simulated_seconds: float = 1e7,
                   max_events: int = 10_000_000,
                   faults=None,
                   shards: int = 1,
                   shard_workers: int | None = None,
                   shard_mode: str = "auto",
                   shard_seed: int = 0) -> FleetSimulationResult:
    """Replay ``requests`` against a :class:`~repro.cluster.fleet.Fleet`.

    Runs :func:`run_event_loop` on the fleet, then assembles the result from
    the fleet's records, report rows and summaries.  With an active fault
    schedule, or resilience policies, the run's
    :class:`~repro.simulation.metrics.ResilienceSummary` lands in
    ``result.fleet.resilience``; with ``faults`` absent or disabled the
    results are byte-identical to a schedule-free run.  A decoupled fleet
    asked for ``shards > 1`` runs on the sharded engine, whose shards run
    the same event loop on sub-fleets of their replicas.

    Args:
        fleet: The fleet under test.
        requests: Requests with ``arrival_time`` assigned, in any order.
        max_simulated_seconds: Safety limit on simulated time.
        max_events: Safety limit on processed events.
        faults: Optional :class:`~repro.faults.FaultSchedule` of chaos events
            to inject (None or a disabled/empty schedule injects nothing).
        shards: Partition the fleet's replicas across this many shards (see
            :mod:`repro.simulation.sharded`).  ``1`` (the default) runs the
            fleet loop without a ``sharding`` record.  A decoupled fleet runs
            on the sharded engine; any other fleet runs this loop unchanged
            and the shard count only labels ``result.sharding``.  Every value
            produces byte-identical results.
        shard_workers: Worker processes for the decoupled parallel path.
            ``None`` uses one per shard up to the CPU count; ``<= 1`` runs the
            shard engines serially in-process (identical results).
        shard_mode: ``"auto"`` (parallel when the fleet is decoupled, else
            lockstep) or ``"lockstep"`` (always this loop — required when the
            caller inspects the fleet object after the run).
        shard_seed: Base seed the per-shard seed streams are derived from
            (:func:`~repro.perf.runner.derive_task_seeds`); the streams are
            only recorded in ``result.sharding``.

    Raises:
        ConfigurationError: if ``shards`` is less than 1 or ``shard_workers``
            is negative.
        SimulationError: if either safety limit is hit.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be at least 1, got {shards}")
    if shard_workers is not None and shard_workers < 0:
        raise ConfigurationError(
            f"shard_workers must be non-negative, got {shard_workers}"
        )
    sharding_info = None
    if shards > 1:
        # Lazy import: `sharded` imports this module for the result types.
        from repro.simulation import sharded as _sharded

        plan = _sharded.ShardPlan(shards, base_seed=shard_seed)
        if _sharded.resolve_shard_mode(shard_mode, fleet, faults) == "parallel":
            return _sharded.simulate_fleet_decoupled(
                fleet, requests, plan,
                shard_workers=shard_workers,
                max_simulated_seconds=max_simulated_seconds,
                max_events=max_events,
            )
        sharding_info = {
            "mode": "lockstep",
            "shards": shards,
            "workers": 1,
            "executed": "serial",
            "shard_seeds": list(plan.shard_seeds),
        }

    events, now = run_event_loop(
        fleet, requests, faults=faults,
        max_simulated_seconds=max_simulated_seconds, max_events=max_events,
    )
    finished = fleet.finished_requests()
    rejected = fleet.rejected_requests()
    summary = summarize_finished(finished, rejected)
    tier_summary = getattr(fleet, "tier_summary", lambda: None)()
    resilience = (
        fleet.resilience_summary(summary)
        if (faults is not None and faults.active) or fleet.policies is not None
        else None
    )
    return FleetSimulationResult(
        fleet_name=fleet.name,
        finished=finished,
        rejected=rejected,
        shed=fleet.shed_requests(),
        summary=summary,
        fleet=summarize_fleet(
            fleet.replica_reports(now),
            scale_events=tuple(event.as_dict() for event in fleet.scale_events),
            num_scale_ups=fleet.stats.num_scale_ups,
            num_scale_downs=fleet.stats.num_scale_downs,
            num_shed=fleet.num_shed,
            num_replicas=fleet.num_replicas,
            peak_replicas=fleet.stats.peak_replicas,
            tiers=tier_summary,
            resilience=resilience,
        ),
        cache_stats=fleet.cache_stats(),
        num_events=events,
        sharding=sharding_info,
        obs=fleet.obs.freeze(now) if fleet.obs.enabled else None,
    )


def run_event_loop(fleet, requests: list[Request], *, faults=None,
                   max_simulated_seconds: float,
                   max_events: int) -> tuple[int, float]:
    """Replay ``requests`` against ``fleet`` until every event source drains.

    The earliest of the next arrival and the fleet's earliest internal event
    wins, arrivals winning ties.  On an arrival the fleet admits, routes, and
    advances only the replica that received the request; on an internal
    event only replicas with due events advance (per-replica clocks).  After
    every event the fleet's autoscaler may scale.

    An active fault schedule adds a third source: its events are loaded into
    their own :class:`~repro.simulation.events.EventQueue` (keyed by
    schedule position, so equal-time faults fire in schedule order), and a
    due fault wins ties against every other source — a crash at *t* removes
    the replica before the arrival at *t* routes.  Resilience-policy timers
    are the fourth source; they beat arrivals and internal events on ties.

    Returns ``(events, end_time)``: the processed-event count
    (:class:`FleetSimulationResult`'s ``num_events``) and the simulated time
    of the last event (0.0 when nothing happened).

    Raises:
        SimulationError: if either safety limit is hit.
    """
    pending = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
    arrival_index = 0
    now = 0.0
    events = 0
    obs = fleet.obs
    obs_sampling = obs.enabled and obs.metrics
    gauge_rows = fleet.obs_gauge_rows

    fault_events = ()
    fault_queue: EventQueue | None = None
    if faults is not None and faults.active:
        fault_events = faults.events
        fault_queue = EventQueue()
        for index, event in enumerate(fault_events):
            fault_queue.update(index, event.time)
        fleet.warm_restore_blocks = faults.warm_restore_blocks

    while True:
        next_arrival = (
            pending[arrival_index].arrival_time if arrival_index < len(pending) else math.inf
        )
        next_internal = fleet.next_event_time()
        next_internal = math.inf if next_internal is None else next_internal
        next_fault = fault_queue.next_time() if fault_queue is not None else None
        next_fault = math.inf if next_fault is None else next_fault
        next_policy = fleet.next_policy_time()
        next_policy = math.inf if next_policy is None else next_policy

        if (math.isinf(next_arrival) and math.isinf(next_internal)
                and math.isinf(next_fault) and math.isinf(next_policy)):
            break

        now = min(next_arrival, next_internal, next_fault, next_policy)
        if now > max_simulated_seconds:
            raise SimulationError(
                f"fleet simulation exceeded {max_simulated_seconds} simulated seconds"
            )

        if obs_sampling:
            # Before the event batch at `now`: a sample at boundary b <= now
            # reflects the state after all events strictly before b.
            obs.maybe_sample(now, gauge_rows)

        if (next_fault <= next_arrival and next_fault <= next_internal
                and next_fault <= next_policy):
            due = fault_queue.pop_due(now)
            for index in due:
                fleet.apply_fault(fault_events[index], now)
            events += max(len(due), 1)
        elif next_policy <= next_arrival and next_policy <= next_internal:
            # Policy timers beat arrivals and internal completions on ties:
            # a request whose deadline coincides with its own finish counts
            # as a deadline miss, deterministically.
            fleet.apply_policy_timers(now)
            events += 1
        elif next_arrival <= next_internal:
            request = pending[arrival_index]
            arrival_index += 1
            fleet.submit(request, now)
            events += 1
        else:
            fleet.advance_to(now)
            # max() keeps the max_events runaway guard armed even if a buggy
            # fleet reports a due event but advances no replica.
            events += max(fleet.last_advance_count, 1)
        fleet.maybe_autoscale(now)

        if events > max_events:
            raise SimulationError(f"fleet simulation exceeded {max_events} events")

    return events, now
