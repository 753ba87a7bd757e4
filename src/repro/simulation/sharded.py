"""Sharded parallel discrete-event simulation for 1000+ replica fleets.

:func:`repro.simulation.simulator.simulate_fleet` is one process walking one
:class:`~repro.simulation.events.EventQueue`.  This module partitions a
fleet's replicas across shards — each walking its own event queue — while
keeping the bit-reproducibility contract: ``shards=1`` and every ``shards=N``
run produce byte-identical :func:`~repro.simulation.invariants.scenario_fingerprint`
results (pinned by ``tests/test_sharded_identity.py``).

Two execution modes, picked per run:

**Lockstep** (always available).  The fleet's single event queue is swapped
for a :class:`ShardedEventQueue` — one :class:`EventQueue` per shard, keys
routed to their owning shard by :meth:`ShardPlan.owner`, due events merged
back into the global order by ``(time, key)``.  Because replica keys are
globally unique, the merged order equals what one queue holding every source
returns (the law ``tests/test_sharded_merge.py`` fuzzes), so the driving loop
— and therefore every feature riding on it: admission, autoscaling, KV tiers,
chaos schedules — is byte-identical by construction.  Fault deliveries land
in the owning shard's queue for the same reason: the fleet's ``update`` /
``discard`` calls for a replica always hit the shard that owns its key.
Lockstep is the conservative end of the lookahead spectrum: a zero-length
window, every cross-shard event globally sequenced.

**Decoupled** (parallel).  When nothing couples replicas mid-run — no
admission policy, no autoscaler, no KV tiers or L3 store, no active fault
schedule, and a router that neither reads queue depths nor replica state
(:attr:`~repro.simulation.routing.Router.consults_instances`) — routing is a
pure function of the arrival sequence.  The coordinator pre-routes every
arrival through the fleet's own router (same calls, same order, same
decisions as the unsharded loop), partitions replicas across shards, and each
shard replays its substream in its own :class:`ShardEngine` — optionally in a
worker process pool (:class:`~repro.perf.runner.ParallelRunner`, with its
serial in-process fallback).  Per-replica event trajectories are identical to
the unsharded loop because replicas in a decoupled fleet never interact;
results are merged back in replica-key order, which is exactly the fleet's
``_all_states()`` results order, so even float summaries (order-sensitive
``np.mean`` reductions) match bit-for-bit.  Between the start and end
barriers a decoupled shard may run arbitrarily far ahead — the conservative
lookahead window (:func:`derive_lookahead`, floored at the modelled
interconnect latency: no cross-shard effect can land sooner than one
link-latency after it is sent) is what would bound that freedom the moment a
coupled feature (L3 traffic, faults) re-enters; those runs fall back to
lockstep today.

Determinism contract (see ``docs/SHARDING.md``):

* per-shard seed streams come from
  :func:`~repro.perf.runner.derive_task_seeds` — a pure function of
  ``(base_seed, shard)``, independent of worker count and scheduling;
* cross-shard merge ties resolve by the fixed ``(time, key)`` sequence key;
* replica ``key % num_shards`` ownership is stable across crash/recover
  cycles, so chaos schedules replay bit-exactly on any shard count.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SimulationError
from repro.hardware.interconnect import PCIE_GEN4
from repro.obs.logging import set_context
from repro.obs.recorder import (
    GLOBAL_KEY,
    NULL_RECORDER,
    TraceRecorder,
    merge_shard_payloads,
)
from repro.perf.runner import ParallelRunner, derive_task_seeds
from repro.simulation.events import EventQueue

__all__ = [
    "ShardPlan",
    "ShardedEventQueue",
    "ShardEngine",
    "derive_lookahead",
    "fleet_is_decoupled",
    "resolve_shard_mode",
    "simulate_fleet_decoupled",
]


@dataclass(frozen=True)
class ShardPlan:
    """How a fleet's replicas map onto shards, plus the per-shard seed streams.

    Ownership is ``key % num_shards`` over the fleet's replica keys.  Keys are
    assigned once per replica ever built (crash recovery builds a fresh
    instance under a fresh key), so ownership is a pure function of the key —
    a fault targeting a replica is always delivered to the shard that owns it,
    on every shard count, which is what keeps chaos schedules replayable.

    ``shard_seeds`` are derived with
    :func:`~repro.perf.runner.derive_task_seeds`: any stochastic component
    running inside shard *i* must draw from stream ``shard_seeds[i]`` so its
    randomness is independent of worker count and scheduling order.  (The
    simulation core itself is deterministic; chaos schedules pre-generate
    their randomness at build time.)
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


class ShardedEventQueue:
    """N per-shard :class:`EventQueue`\\ s behind the single-queue interface.

    Drop-in for the fleet's event queue (``update`` / ``discard`` /
    ``next_time`` / ``pop_due`` — the full surface
    :class:`~repro.cluster.fleet.Fleet` uses): each key's entries live in its
    owning shard's queue, the global head is the minimum shard head by
    ``(time, key)``, and :meth:`pop_due` merges the per-shard due lists by
    ``(time, key)``.  Keys are globally unique, so the merge reproduces the
    exact drain order of one queue holding every source — the identity
    ``tests/test_sharded_merge.py`` pins under random event storms.
    """

    def __init__(self, plan: ShardPlan) -> None:
        self.plan = plan
        self._shards = [EventQueue() for _ in range(plan.num_shards)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def shard(self, shard_id: int) -> EventQueue:
        """The event queue of one shard (for inspection/tests)."""
        return self._shards[shard_id]

    def update(self, key: int, time: float | None) -> None:
        """Record ``key``'s next event time in its owning shard's queue."""
        self._shards[self.plan.owner(key)].update(key, time)

    def discard(self, key: int) -> None:
        """Forget ``key`` in its owning shard's queue."""
        self._shards[self.plan.owner(key)].discard(key)

    def peek(self) -> tuple[float, int] | None:
        """Globally earliest live ``(time, key)`` across every shard."""
        best: tuple[float, int] | None = None
        for shard in self._shards:
            head = shard.peek()
            if head is not None and (best is None or head < best):
                best = head
        return best

    def next_time(self) -> float | None:
        """Time of the globally earliest live entry, or ``None``."""
        head = self.peek()
        return None if head is None else head[0]

    def pop_due(self, now: float) -> list[int]:
        """Drain every shard's due events, merged into global order."""
        return [key for _, key in self.pop_due_entries(now)]

    def pop_due_entries(self, now: float) -> list[tuple[float, int]]:
        """Per-shard due lists merged by the ``(time, key)`` sequence key."""
        per_shard = [shard.pop_due_entries(now) for shard in self._shards]
        return list(heapq.merge(*per_shard))


def derive_lookahead(fleet, lookahead: float | None = None) -> float:
    """The conservative lookahead window, in simulated seconds.

    An explicit ``lookahead`` (scenario/CLI ``lookahead`` field) wins.
    Otherwise the window is derived from the modelled interconnect latency:
    the fastest link any cross-shard effect could travel — the L3 cluster
    store's link if the fleet has one, else the replicas' shard-to-shard
    interconnect, else PCIe gen4.  No cross-shard message can be delivered
    sooner than one link-latency after it is sent, so a shard holding no
    undelivered inputs may always run that far ahead safely.
    """
    if lookahead is not None:
        if lookahead <= 0:
            raise ConfigurationError("lookahead must be positive")
        return float(lookahead)
    latencies = []
    store = getattr(fleet, "cluster_store", None)
    if store is not None:
        latencies.append(store.link.latency)
    for _, _, spec in fleet.shard_manifest():
        if spec is not None and spec.interconnect is not None:
            latencies.append(spec.interconnect.latency)
    return min(latencies) if latencies else PCIE_GEN4.latency


def fleet_is_decoupled(fleet, faults) -> bool:
    """True when no feature couples replicas mid-run.

    Decoupled fleets are exactly the ones whose routing is a pure function of
    the arrival sequence, which is what lets the parallel path pre-route
    arrivals and run each shard to completion independently.
    """
    router = fleet.router
    return (
        fleet.admission is None
        and fleet.autoscaler is None
        and fleet.tier_config is None
        and fleet.cluster_store is None
        and (faults is None or not faults.active)
        and getattr(fleet, "policies", None) is None
        and not router.needs_queue_depths
        and not router.consults_instances
        and fleet.stats.num_submitted == 0
        and not fleet.scale_events
    )


def resolve_shard_mode(shard_mode: str, fleet, faults) -> str:
    """Pick ``"parallel"`` or ``"lockstep"`` for this run.

    ``"auto"`` runs decoupled fleets in parallel and everything else in
    lockstep; ``"lockstep"`` forces the globally-sequenced path (e.g. when the
    caller needs the fully-simulated fleet object afterwards).
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
    #: :class:`~repro.obs.recorder.ObsConfig` when the run records
    #: observability, else ``None`` (the shard uses the null recorder).
    obs_config: object = None
    #: ``(tenant, slo_latency_s)`` pairs for the shard recorder's SLO counter.
    tenant_slos: tuple = ()


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
        if task.obs_config is not None and task.obs_config.enabled:
            self.obs = TraceRecorder(
                task.obs_config, tenant_slos=dict(task.tenant_slos),
            )
        else:
            self.obs = NULL_RECORDER
        for key, name, spec in task.replicas:
            instance = EngineInstance(
                spec.engine, task.model, spec.gpu,
                interconnect=spec.interconnect,
                max_input_length=task.max_input_length,
                name=name,
            )
            instance.obs = self.obs
            instance.obs_key = key
            self.obs.register_replica(key, name)
            self.instances[key] = instance
            self.queue.update(key, instance.next_event_time())

    def _gauge_rows(self) -> list:
        """This shard's slice of ``Fleet.obs_gauge_rows`` (replica-key order)."""
        return [
            ("queue_depth", (("replica", name),), self.instances[key].num_waiting)
            for key, name, _spec in self.task.replicas
        ]

    def run(self) -> dict:
        """Drain the shard; return the picklable per-replica payload."""
        task = self.task
        set_context(shard=task.shard_id)
        arrivals = task.arrivals
        arrival_index = 0
        now = 0.0
        events = 0
        obs = self.obs
        obs_sampling = obs.enabled and obs.metrics

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

            if obs_sampling:
                # Same discipline as the fleet loop: sample before the event
                # batch at `now`, over this shard's replicas only.
                obs.maybe_sample(now, self._gauge_rows)

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

        obs.finalize(now)
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
            "obs": obs.payload() if obs.enabled else None,
        }


def _run_shard(task: _ShardTask) -> dict:
    """Process-pool entry point: build and drain one shard."""
    return ShardEngine(task).run()


def simulate_fleet_decoupled(fleet, requests, plan: ShardPlan, *,
                             lookahead: float,
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
    # round-robin) make the same decisions.  The coordinator's recorder gets
    # the same submit/route events the unsharded loop emits, at the same
    # simulated times (the arrival times), in the same order — only the
    # wall-clock moment of recording differs, which the span format never
    # sees.
    obs = fleet.obs
    shard_arrivals: list[list] = [[] for _ in range(plan.num_shards)]
    keys = [entry[0] for entry in manifest]
    names = [entry[1] for entry in manifest]
    for request in pending:
        index = fleet.router.route(request, [])
        key = keys[index]
        shard_arrivals[plan.owner(key)].append((key, request))
        if obs.enabled:
            obs.emit(
                request.arrival_time, GLOBAL_KEY, "submit",
                request=request.request_id,
            )
            obs.emit(
                request.arrival_time, key, "route",
                request=request.request_id, replica=names[index],
            )
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
            obs_config=obs.config if obs.enabled else None,
            tenant_slos=tuple(sorted(obs.tenant_slos.items())) if obs.enabled else (),
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
            "lookahead_s": lookahead,
            "shard_seeds": list(plan.shard_seeds),
        },
        obs=(
            merge_shard_payloads(
                obs, [p["obs"] for p in payloads if p.get("obs") is not None],
            )
            if obs.enabled else None
        ),
    )
