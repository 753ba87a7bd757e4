"""Sharded parallel discrete-event simulation for 1000+ replica fleets.

:func:`repro.simulation.simulator.simulate_fleet` is one process walking one
:class:`~repro.simulation.events.EventQueue`.  When nothing couples replicas
mid-run — no admission policy, no autoscaler, no KV tiers, no active fault
schedule, no resilience policies, and a router that neither reads queue
depths nor replica state
(:attr:`~repro.simulation.routing.Router.consults_instances`) — routing is a
pure function of the arrival sequence, and this module shards the run for
real, provided the run records no observability.  The coordinator pre-routes
every arrival through the fleet's own router (same calls, same order, same
decisions as the unsharded loop), partitions replicas across shards by
:meth:`ShardPlan.owner`, and each shard replays its substream in its own
:class:`ShardEngine` — optionally in a worker process pool
(:class:`~repro.perf.runner.ParallelRunner`, with its serial in-process
fallback).  A shard engine has no loop of its own: it runs
:func:`~repro.simulation.simulator.run_event_loop`, the simulator's one event
merge, on a sub-fleet of the shard's replicas whose router replays the
coordinator's decisions.  Per-replica event trajectories are identical to the
unsharded loop because replicas in a decoupled fleet never interact; results
are merged back in replica-key order, which is exactly the fleet's
``_all_states()`` results order, so even float summaries (order-sensitive
``np.mean`` reductions) match bit-for-bit (pinned by
``tests/test_sharded_identity.py``).

A fleet that fails :func:`fleet_is_decoupled` runs the ordinary fleet loop
unchanged — the ``"lockstep"`` mode of :func:`resolve_shard_mode` — and the
shard count only labels ``result.sharding``.  A recorded fleet is one of
them: the fleet loop is the only producer of observability data
(:class:`~repro.obs.recorder.ObsData`), so shard engines never record.

Determinism contract (see ``docs/SHARDING.md``):

* per-shard seed streams come from
  :func:`~repro.perf.runner.derive_task_seeds` — a pure function of
  ``(base_seed, shard)``, independent of worker count and scheduling;
* per-shard results merge back by replica key, so the merged record is the
  unsharded one;
* replica ``key % num_shards`` ownership is a pure function of the key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.cluster.fleet import Fleet, cache_row, replica_report
from repro.errors import ConfigurationError, SimulationError
from repro.obs.logging import set_context
from repro.perf.runner import ParallelRunner, derive_task_seeds
from repro.simulation.metrics import summarize_finished, summarize_fleet
from repro.simulation.routing import Router
from repro.simulation.simulator import FleetSimulationResult, run_event_loop

__all__ = [
    "ShardPlan",
    "ShardEngine",
    "fleet_is_decoupled",
    "resolve_shard_mode",
    "simulate_fleet_decoupled",
]


@dataclass(frozen=True)
class ShardPlan:
    """How a fleet's replicas map onto shards, plus the per-shard seed streams.

    Ownership is ``key % num_shards`` over the fleet's replica keys.  Keys are
    assigned once per replica ever built, so ownership is a pure function of
    the key.

    ``shard_seeds`` are derived with
    :func:`~repro.perf.runner.derive_task_seeds`, so stream *i* is independent
    of worker count and scheduling order.  The simulation core itself is
    deterministic and draws from none of them; they are recorded in
    ``result.sharding``.
    """

    num_shards: int
    base_seed: int = 0
    shard_seeds: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        object.__setattr__(
            self, "shard_seeds",
            tuple(derive_task_seeds(self.base_seed, self.num_shards)),
        )

    def owner(self, key: int) -> int:
        """Shard that owns event-source ``key``."""
        return key % self.num_shards


def fleet_is_decoupled(fleet, faults) -> bool:
    """True when no feature couples replicas mid-run and nothing is recorded.

    Decoupled fleets are exactly the ones whose routing is a pure function of
    the arrival sequence, which is what lets the parallel path pre-route
    arrivals and run each shard to completion independently.  A fleet that
    records observability is never decoupled: only the fleet loop records.
    """
    router = fleet.router
    return (
        fleet.admission is None
        and fleet.autoscaler is None
        and fleet.tier_config is None
        and (faults is None or not faults.active)
        and fleet.policies is None
        and not fleet.obs.enabled
        and not router.needs_queue_depths
        and not router.consults_instances
        and fleet.stats.num_submitted == 0
        and not fleet.scale_events
    )


def resolve_shard_mode(shard_mode: str, fleet, faults) -> str:
    """Pick ``"parallel"`` or ``"lockstep"`` for this run.

    ``"auto"`` runs decoupled fleets in parallel and everything else in
    lockstep, the ordinary fleet loop; ``"lockstep"`` forces the fleet loop
    (e.g. when the caller needs the fully-simulated fleet object afterwards).
    """
    if shard_mode not in ("auto", "lockstep"):
        raise ConfigurationError(
            f"unknown shard mode {shard_mode!r}; expected 'auto' or 'lockstep'"
        )
    if shard_mode == "lockstep":
        return "lockstep"
    return "parallel" if fleet_is_decoupled(fleet, faults) else "lockstep"


# --------------------------------------------------------------------------
# The decoupled parallel path.


@dataclass(frozen=True)
class _ShardTask:
    """Everything one shard needs to replay its substream in a worker process."""

    shard_id: int
    #: ``(key, instance name, ReplicaSpec)`` of the shard's replicas.
    replicas: tuple
    model: object
    max_input_length: int
    #: ``(key, Request)`` in global arrival order.
    arrivals: tuple
    max_simulated_seconds: float
    max_events: int


class _PreRoutedRouter(Router):
    """Replays the coordinator's routing decisions inside one shard.

    Maps each request id (unique within a run) to the local index of the
    replica the coordinator routed it to, so the shard's sub-fleet routes
    without reading queue depths or replica state.
    """

    needs_queue_depths = False
    consults_instances = False

    def __init__(self, num_instances: int, routes: dict[int, int]) -> None:
        super().__init__(num_instances)
        self._routes = routes

    def route(self, request, queue_depths: list[int]) -> int:
        return self._routes[request.request_id]


# `__init__` and `run` keep their names: the benchmark's tracer wraps them.
class ShardEngine:
    """One shard: the fleet event loop on a sub-fleet of the shard's replicas.

    Rebuilds the shard's replicas as a :class:`~repro.cluster.fleet.Fleet`
    of their specs (byte-identical construction to the coordinator's
    decoupled fleet — same specs, no tiers, no recorder), renames each to
    its coordinator name, and replays the pre-routed arrival substream with
    :func:`~repro.simulation.simulator.run_event_loop`.  Each replica's call
    sequence — ``submit`` at its arrival times, ``advance_to`` at its own
    due times — is exactly what the unsharded loop produces, because
    decoupled replicas never react to each other's events.
    """

    def __init__(self, task: _ShardTask) -> None:
        self.task = task
        local = {key: index for index, (key, _, _) in enumerate(task.replicas)}
        self.fleet = Fleet(
            [spec for _, _, spec in task.replicas], task.model,
            max_input_length=task.max_input_length,
            router=_PreRoutedRouter(len(task.replicas), {
                request.request_id: local[key] for key, request in task.arrivals
            }),
        )
        # A decoupled fleet has no tier store, recorder or policy, so nothing
        # has read a replica's name before its first record.
        for (_, name, _), instance in zip(task.replicas, self.fleet.replicas):
            instance.name = name

    def run(self) -> dict:
        """Drain the shard; return the picklable per-replica payload.

        ``replicas`` holds ``(key, finished, rejected, busy_time, kv stats)``
        per replica, in the shard's key order.
        """
        task = self.task
        events, end_time = run_event_loop(
            self.fleet, [request for _, request in task.arrivals],
            max_simulated_seconds=task.max_simulated_seconds,
            max_events=task.max_events,
        )
        return {
            "events": events,
            "end_time": end_time,
            "replicas": [
                (key, instance.finished_requests, instance.rejected_requests,
                 instance.busy_time, instance.kv.stats())
                for (key, _, _), instance in zip(task.replicas, self.fleet.replicas)
            ],
        }


def _run_shard(task: _ShardTask) -> dict:
    """Process-pool entry point: build and drain one shard.

    Log records carry the shard's id while it runs; the caller's logging
    context is restored when it returns, so an in-process run leaks no id.
    """
    previous = set_context(shard=task.shard_id)
    try:
        return ShardEngine(task).run()
    finally:
        set_context(**previous)


def simulate_fleet_decoupled(fleet, requests, plan: ShardPlan, *,
                             shard_workers: int | None = None,
                             max_simulated_seconds: float = 1e7,
                             max_events: int = 10_000_000):
    """Run a decoupled fleet sharded, optionally across worker processes.

    The caller (``simulate_fleet``) has already checked
    :func:`fleet_is_decoupled`.  The coordinator routes every arrival through
    the fleet's own router — identical calls in identical order to the
    unsharded loop, so identical decisions — then fans the per-shard
    substreams out and merges the payloads back in replica-key order.

    ``shard_workers=None`` uses one worker per shard up to the CPU count;
    ``<= 1`` runs the shard engines serially in-process (identical results —
    the property ``tests/test_sharded_identity.py`` pins).
    """
    pending = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
    manifest = fleet.shard_manifest()

    # Pre-route.  The router sees the same (request, depths=[]) calls in the
    # same order as the unsharded loop, so stateful routers (user-id
    # round-robin) make the same decisions.
    shard_arrivals: list[list] = [[] for _ in range(plan.num_shards)]
    keys = [entry[0] for entry in manifest]
    for request in pending:
        key = keys[fleet.router.route(request, [])]
        shard_arrivals[plan.owner(key)].append((key, request))
    fleet.stats.num_submitted += len(pending)

    tasks = []
    for shard_id in range(plan.num_shards):
        replicas = tuple(
            entry for entry in manifest if plan.owner(entry[0]) == shard_id
        )
        if not replicas:
            continue
        tasks.append(_ShardTask(
            shard_id=shard_id,
            replicas=replicas,
            model=fleet.model,
            max_input_length=fleet.max_input_length,
            arrivals=tuple(shard_arrivals[shard_id]),
            max_simulated_seconds=max_simulated_seconds,
            max_events=max_events,
        ))

    if shard_workers is None:
        shard_workers = min(plan.num_shards, os.cpu_count() or 1)
    runner = ParallelRunner(max_workers=shard_workers)
    payloads = runner.map(_run_shard, tasks)

    events = sum(payload["events"] for payload in payloads)
    end_time = max((payload["end_time"] for payload in payloads), default=0.0)
    if events > max_events:
        raise SimulationError(f"fleet simulation exceeded {max_events} events")

    # Merge in manifest order — replica-key order, the fleet's
    # `_all_states()` results order, so concatenated lists (and the
    # order-sensitive float reductions over them) are bit-identical to the
    # unsharded run.
    rows = {row[0]: row for payload in payloads for row in payload["replicas"]}
    finished = []
    rejected = []
    cache_stats = []
    reports = []
    for key, name, _ in manifest:
        _, done, refused, busy_time, cache = rows[key]
        finished.extend(done)
        rejected.extend(refused)
        cache_stats.append(cache_row(name, cache))
        reports.append(replica_report(name, len(done), busy_time, end_time, cache))

    summary = summarize_finished(finished, rejected)
    return FleetSimulationResult(
        fleet_name=fleet.name,
        finished=finished,
        rejected=rejected,
        shed=[],
        summary=summary,
        fleet=summarize_fleet(
            reports,
            num_replicas=fleet.num_replicas,
            peak_replicas=fleet.stats.peak_replicas,
        ),
        cache_stats=cache_stats,
        num_events=events,
        sharding={
            "mode": "parallel",
            "shards": plan.num_shards,
            "workers": shard_workers,
            "executed": runner.last_mode,
            "shard_seeds": list(plan.shard_seeds),
        },
    )
