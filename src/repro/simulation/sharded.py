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
fallback).  Per-replica event trajectories are identical to the unsharded
loop because replicas in a decoupled fleet never interact; results are merged
back in replica-key order, which is exactly the fleet's ``_all_states()``
results order, so even float summaries (order-sensitive ``np.mean``
reductions) match bit-for-bit (pinned by ``tests/test_sharded_identity.py``).

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

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SimulationError
from repro.obs.logging import set_context
from repro.perf.runner import ParallelRunner, derive_task_seeds
from repro.simulation.events import EventQueue

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
    seed: int
    #: ``(key, instance name, ReplicaSpec)`` of the shard's replicas.
    replicas: tuple
    model: object
    max_input_length: int
    #: ``(key, Request)`` in global arrival order.
    arrivals: tuple
    max_simulated_seconds: float
    max_events: int


class ShardEngine:
    """One shard's event loop: the per-replica slice of the fleet loop.

    Rebuilds the shard's replicas (byte-identical construction to
    ``Fleet._build_replica`` on a decoupled fleet — same specs, same names,
    no tiers) and replays the pre-routed arrival substream with the same
    two-source merge as the unsharded loop: arrival versus earliest internal
    event, arrival winning ties, due replicas drained in ``(time, key)``
    order.  Each replica's call sequence — ``submit`` at its arrival times,
    ``advance_to`` at its own due times — is exactly what the unsharded loop
    produces, because decoupled replicas never react to each other's events.
    """

    def __init__(self, task: _ShardTask) -> None:
        from repro.core.engine import EngineInstance

        self.task = task
        self.instances = {}
        self.queue = EventQueue()
        for key, name, spec in task.replicas:
            instance = EngineInstance(
                spec.engine, task.model, spec.gpu,
                interconnect=spec.interconnect,
                max_input_length=task.max_input_length,
                name=name,
            )
            self.instances[key] = instance
            self.queue.update(key, instance.next_event_time())

    def run(self) -> dict:
        """Drain the shard; return the picklable per-replica payload."""
        task = self.task
        arrivals = task.arrivals
        arrival_index = 0
        now = 0.0
        events = 0

        while True:
            next_arrival = (
                arrivals[arrival_index][1].arrival_time
                if arrival_index < len(arrivals) else math.inf
            )
            next_internal = self.queue.next_time()
            next_internal = math.inf if next_internal is None else next_internal

            if math.isinf(next_arrival) and math.isinf(next_internal):
                break

            now = min(next_arrival, next_internal)
            if now > task.max_simulated_seconds:
                raise SimulationError(
                    f"fleet simulation exceeded {task.max_simulated_seconds} "
                    "simulated seconds"
                )

            if next_arrival <= next_internal:
                key, request = arrivals[arrival_index]
                arrival_index += 1
                instance = self.instances[key]
                instance.submit(request, now)
                instance.advance_to(now)
                self.queue.update(key, instance.next_event_time())
                events += 1
            else:
                due = self.queue.pop_due(now)
                for key in due:
                    instance = self.instances[key]
                    instance.advance_to(now)
                    self.queue.update(key, instance.next_event_time())
                events += max(len(due), 1)

            if events > task.max_events:
                raise SimulationError(
                    f"fleet simulation exceeded {task.max_events} events"
                )

        replicas = []
        for key, name, _spec in task.replicas:
            instance = self.instances[key]
            cache = instance.kv.stats()
            replicas.append({
                "key": key,
                "name": name,
                "finished": instance.finished_requests,
                "rejected": instance.rejected_requests,
                "busy_time": instance.busy_time,
                "cache_requests": cache.requests,
                "request_hit_rate": cache.request_hit_rate,
                "token_hit_rate": cache.token_hit_rate,
                "offload_stats": cache.offload_stats,
            })
        return {
            "shard_id": task.shard_id,
            "seed": task.seed,
            "events": events,
            "end_time": now,
            "replicas": replicas,
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
    import os

    from repro.simulation.metrics import summarize_finished, summarize_fleet
    from repro.simulation.simulator import FleetSimulationResult

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
    fleet.stats.num_routed += len(pending)

    tasks = []
    for shard_id in range(plan.num_shards):
        replicas = tuple(
            entry for entry in manifest if plan.owner(entry[0]) == shard_id
        )
        if not replicas:
            continue
        tasks.append(_ShardTask(
            shard_id=shard_id,
            seed=plan.shard_seeds[shard_id],
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

    # Merge in replica-key order — the fleet's `_all_states()` results order,
    # so concatenated lists (and the order-sensitive float reductions over
    # them) are bit-identical to the unsharded run.
    rows = sorted(
        (row for payload in payloads for row in payload["replicas"]),
        key=lambda row: row["key"],
    )
    finished = [record for row in rows for record in row["finished"]]
    rejected = [record for row in rows for record in row["rejected"]]
    events = sum(payload["events"] for payload in payloads)
    end_time = max((payload["end_time"] for payload in payloads), default=0.0)
    if events > max_events:
        raise SimulationError(f"fleet simulation exceeded {max_events} events")

    cache_stats = [
        {
            "instance": row["name"],
            "requests": row["cache_requests"],
            "request_hit_rate": round(row["request_hit_rate"], 3),
            "token_hit_rate": round(row["token_hit_rate"], 3),
        }
        for row in rows
    ]
    reports = []
    for row in rows:
        busy = row["busy_time"]
        report = {
            "replica": row["name"],
            "finished": len(row["finished"]),
            "busy_s": round(busy, 3),
            "active_s": round(end_time, 3),
            "utilization": min(busy / end_time, 1.0) if end_time > 0 else 0.0,
            "request_hit_rate": row["request_hit_rate"],
            "token_hit_rate": row["token_hit_rate"],
            "retired": False,
        }
        if row["offload_stats"] is not None:
            report["offload_stored"] = row["offload_stats"]["stored_blocks"]
            report["offload_loaded"] = row["offload_stats"]["loaded_blocks"]
            report["offload_evicted"] = row["offload_stats"]["evicted_blocks"]
        reports.append(report)

    summary = summarize_finished(finished, rejected)
    return FleetSimulationResult(
        fleet_name=fleet.name,
        finished=finished,
        rejected=rejected,
        shed=[],
        summary=summary,
        fleet=summarize_fleet(
            reports,
            scale_events=(),
            num_scale_ups=0,
            num_scale_downs=0,
            num_shed=0,
            num_replicas=fleet.num_replicas,
            peak_replicas=fleet.stats.peak_replicas,
            tiers=None,
            resilience=None,
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
