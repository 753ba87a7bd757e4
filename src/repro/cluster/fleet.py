"""A fleet of engine replicas behind one entry point.

:class:`Fleet` is the simulator's one serving model.  The paper's deployment
(one engine instance per GPU behind a user-id router) is its
:class:`~repro.simulation.server.ServingSystem` preset; the general fleet is
a production-shaped serving tier:

* N replicas, each a full :class:`~repro.core.engine.EngineInstance`, built
  from per-replica :class:`ReplicaSpec` records so GPU types and engine
  flavours may differ across the fleet;
* a pluggable :class:`~repro.simulation.routing.Router` (user-id by default,
  matching the paper's deployment rule) that is kept in sync with the replica
  set as it changes;
* optional queue-depth :class:`~repro.cluster.admission.AdmissionPolicy` load
  shedding in front of the router;
* an optional :class:`~repro.cluster.autoscaler.ReactiveAutoscaler` that adds
  replicas cloned from a template spec and drains the highest-indexed replica on
  scale-down (drained replicas stop receiving traffic, finish their queue,
  and retire with their completion records preserved).

Replica clocks are advanced lazily: an event at simulated time *t* only
advances replicas whose next internal event is due at or before *t*, so a
mostly idle fleet costs almost nothing per event regardless of its size.  The
fleet finds those due replicas with a heap-based
:class:`~repro.simulation.events.EventQueue` (one live entry per serving
replica, refreshed whenever a replica is submitted to, advanced, or scaled)
instead of scanning every replica per event.  The driving loop, for every
fleet including the paper's serving system, is
:func:`repro.simulation.simulator.simulate_fleet`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import EngineInstance, EngineSpec, FinishedRequest, kv_block_bytes
from repro.errors import ConfigurationError, SimulationError
from repro.faults import DEFAULT_WARM_RESTORE_BLOCKS, FaultEvent, ResilienceCounters
from repro.hardware.cluster import HardwareSetup
from repro.hardware.gpu import GPUSpec
from repro.hardware.interconnect import Interconnect
from repro.kvcache.manager import CacheStats
from repro.kvcache.tiers import ClusterPrefixStore, build_cluster_store
from repro.model.config import ModelConfig, get_model
from repro.obs.recorder import GLOBAL_KEY, NULL_RECORDER
from repro.resilience.policy import PolicyRuntime, HealthAwareRouter, TrackedRequest
from repro.simulation.events import EventQueue
from repro.simulation.routing import Router, UserIdRouter
from repro.spec.models import KVTiersSpec, ResilienceSpec
from repro.cluster.admission import AdmissionPolicy
from repro.cluster.autoscaler import ReactiveAutoscaler, ScaleEvent
from repro.workloads.trace import Request

#: Policy-timer slots multiplexed into one EventQueue: the timer key of a
#: request is ``request_id * 4 + slot`` (base-4 keeps a spare slot).
_TIMER_DEADLINE, _TIMER_HEDGE, _TIMER_RETRY = 0, 1, 2


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything needed to stand up one replica of the fleet.

    Attributes:
        engine: Engine flavour the replica runs.
        gpu: GPU type of each shard of the replica.
        interconnect: Shard-to-shard link (required when the engine spec uses
            more than one GPU per instance).
    """

    engine: EngineSpec
    gpu: GPUSpec
    interconnect: Interconnect | None = None


@dataclass
class _ReplicaState:
    """Bookkeeping the fleet keeps per replica (live, draining, retired, or crashed)."""

    instance: EngineInstance
    created_at: float
    spec: ReplicaSpec | None = None
    key: int = 0
    retired_at: float | None = None
    #: Killed by a fault (crash ≠ drain: nothing finished, nothing flushed).
    crashed: bool = False
    #: Built by fault recovery — the replicas whose tier hits measure the
    #: warm-restore hit rate.
    recovered: bool = False


@dataclass
class FleetStats:
    """Counters the fleet accumulates while serving."""

    num_submitted: int = 0
    num_scale_ups: int = 0
    num_scale_downs: int = 0
    peak_replicas: int = 0


class Fleet:
    """N engine replicas behind a router, admission control, and an autoscaler.

    Args:
        replica_specs: One :class:`ReplicaSpec` per initial replica (at least
            one).  The first entry doubles as the template the autoscaler
            clones when growing the fleet.
        model: Model served by every replica.
        max_input_length: MIL each replica is provisioned for.
        router: Routing policy; defaults to the paper's user-id router.
        admission: Optional load-shedding policy consulted before routing.
        autoscaler: Optional reactive autoscaler.
        name: Fleet name used in reports.
        tier_config: Optional tiered prefix-cache configuration
            (:class:`~repro.spec.models.KVTiersSpec`).  When enabled the
            fleet builds one shared cluster (L3) store, wires every replica —
            including autoscaled clones — into it, warms the routed replica
            before dispatch (router-hint prefetch), and drains retiring
            replicas' hot prefixes into the shared store on scale-down.
        recorder: Optional :class:`~repro.obs.recorder.TraceRecorder` the
            fleet, its replicas, and their tier stores report span events to;
            None installs the no-op null recorder (the default, behaviour
            identical to a build without the subsystem).
        policies: Optional :class:`~repro.spec.models.ResilienceSpec` of
            client-side failure policies — per-request deadlines, seeded
            retry/backoff, hedged requests, circuit-breaker health routing,
            and brownout-tier degradation (see ``docs/RESILIENCE.md``).
            ``None`` or an inactive config is behaviour-identical to a build
            without the subsystem.
    """

    def __init__(self, replica_specs: list[ReplicaSpec], model: ModelConfig, *,
                 max_input_length: int,
                 router: Router | None = None,
                 admission: AdmissionPolicy | None = None,
                 autoscaler: ReactiveAutoscaler | None = None,
                 name: str = "fleet",
                 tier_config: KVTiersSpec | None = None,
                 recorder=None,
                 policies: ResilienceSpec | None = None) -> None:
        if not replica_specs:
            raise ConfigurationError("a fleet needs at least one replica spec")
        self.name = name
        #: The observability recorder every hook site reports to; the shared
        #: no-op :data:`~repro.obs.recorder.NULL_RECORDER` unless the run is
        #: traced (see ``docs/OBSERVABILITY.md``).
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.model = model
        self.max_input_length = max_input_length
        self.template = replica_specs[0]
        self.admission = admission
        self.autoscaler = autoscaler
        self.tier_config = tier_config if tier_config is not None and tier_config.enabled else None
        self.cluster_store: ClusterPrefixStore | None = None
        if self.tier_config is not None:
            block_sizes = {spec.engine.kv_block_size for spec in replica_specs}
            block_bytes = {kv_block_bytes(spec.engine, model) for spec in replica_specs}
            if len(block_sizes) > 1 or len(block_bytes) > 1:
                raise ConfigurationError(
                    "tiering requires a fleet-wide KV block geometry (the shared "
                    "cluster store keys and sizes blocks by content hash); got "
                    f"block sizes {sorted(block_sizes)} and "
                    f"block bytes {sorted(block_bytes)}"
                )
            self.cluster_store = build_cluster_store(
                self.tier_config, block_bytes=kv_block_bytes(self.template.engine, model)
            )
        self.stats = FleetStats()
        #: Replicas advanced by the most recent :meth:`advance_to` call, so
        #: the driving loop can count processed events (see
        #: :class:`repro.simulation.simulator.FleetSimulationResult`).
        self.last_advance_count = 0
        self.scale_events: list[ScaleEvent] = []
        #: Fault/recovery counters (all zero until a fault is injected); see
        #: :class:`repro.faults.ResilienceCounters`.
        self.resilience = ResilienceCounters()
        #: One dict row per delivered fault event, in delivery order.
        self.fault_log: list[dict] = []
        #: Request ids re-routed after a crash (per-tenant retry accounting).
        self.retried_request_ids: list[int] = []
        #: L3 -> L2 restore budget (blocks) applied on fault recovery; the
        #: simulator overrides it from the schedule's ``warm_restore_blocks``.
        self.warm_restore_blocks = DEFAULT_WARM_RESTORE_BLOCKS
        self._brownout = 1.0
        self._shed: list[FinishedRequest] = []
        self._replica_seq = 0
        self._events = EventQueue()
        self._states_by_key: dict[int, _ReplicaState] = {}
        self._active: list[_ReplicaState] = [
            self._build_replica(spec, now=0.0) for spec in replica_specs
        ]
        self._draining: list[_ReplicaState] = []
        self._retired: list[_ReplicaState] = []
        self._crashed: list[_ReplicaState] = []
        #: Logical fault-target id -> current replica key.  Fault events
        #: address replicas by the *logical* slot (initially the build index),
        #: so a crash/recover/crash cycle keeps targeting the same slot even
        #: though recovery builds a fresh instance under a new key.
        self._fault_targets: dict[int, int] = {
            index: index for index in range(len(self._active))
        }
        self._crash_times: dict[int, float] = {}
        #: The resilience-policy runtime, or None (no policy overhead at all;
        #: behaviour byte-identical to a build without the subsystem).
        self.policies: PolicyRuntime | None = None
        #: Terminal records of policy-cancelled requests (deadline misses,
        #: exhausted retries) — merged into :meth:`rejected_requests`.
        self._cancelled: list[FinishedRequest] = []
        self._policy_events = EventQueue()
        self._tracked: dict[int, TrackedRequest] = {}
        if policies is not None and policies.active:
            self.policies = PolicyRuntime(
                policies,
                on_breaker_transition=self._on_breaker_transition,
                on_degrade_transition=self._on_degrade_transition,
            )
        self.router: Router = (
            router if router is not None else UserIdRouter(len(self._active))
        )
        if self.policies is not None and self.policies.breakers is not None:
            self.router = HealthAwareRouter(self.router, self.policies.breakers)
        self.router.observe_instances(self.replicas)
        self.stats.peak_replicas = len(self._active)

    # ----------------------------------------------------------- construction

    @classmethod
    def homogeneous(cls, engine: EngineSpec, model: ModelConfig, gpu: GPUSpec, *,
                    num_replicas: int, max_input_length: int,
                    interconnect: Interconnect | None = None,
                    **kwargs) -> "Fleet":
        """Build a fleet of ``num_replicas`` identical replicas."""
        if num_replicas < 1:
            raise ConfigurationError("num_replicas must be at least 1")
        spec = ReplicaSpec(engine=engine, gpu=gpu, interconnect=interconnect)
        return cls([spec] * num_replicas, model,
                   max_input_length=max_input_length, **kwargs)

    @classmethod
    def for_setup(cls, engine: EngineSpec, setup: HardwareSetup, *,
                  max_input_length: int, num_replicas: int | None = None,
                  **kwargs) -> "Fleet":
        """Build a fleet on one of the paper's hardware setups.

        ``num_replicas`` defaults to the paper's deployment rule: one replica
        per ``engine.gpus_per_instance`` GPUs of the setup's cluster.
        """
        if num_replicas is None:
            num_replicas = max(setup.cluster.num_gpus // engine.gpus_per_instance, 1)
        return cls.homogeneous(
            engine, get_model(setup.model_name), setup.cluster.gpu,
            num_replicas=num_replicas,
            max_input_length=max_input_length,
            interconnect=setup.cluster.interconnect,
            **kwargs,
        )

    def _build_replica(self, spec: ReplicaSpec, *, now: float) -> _ReplicaState:
        index = self._replica_seq
        self._replica_seq += 1
        instance = EngineInstance(
            spec.engine, self.model, spec.gpu,
            interconnect=spec.interconnect,
            max_input_length=self.max_input_length,
            name=f"{spec.engine.name}-{index}",
            tier_config=self.tier_config,
            cluster_store=self.cluster_store,
        )
        instance.obs = self.obs
        instance.obs_key = index
        self.obs.register_replica(index, instance.name)
        if instance.kv.tiers is not None:
            instance.kv.tiers.obs = self.obs
            instance.kv.tiers.obs_key = index
        state = _ReplicaState(instance=instance, created_at=now, spec=spec, key=index)
        if self._brownout != 1.0:
            # A replica built mid-brownout (autoscale or fault recovery)
            # suffers the degraded interconnect like everyone else.
            instance.kv.set_transfer_cost_multiplier(self._brownout)
        self._states_by_key[index] = state
        self._refresh_event(state)
        return state

    def _refresh_event(self, state: _ReplicaState) -> None:
        """Record the replica's current next-event time in the event queue."""
        self._events.update(state.key, state.instance.next_event_time())

    # ---------------------------------------------------------------- state

    @property
    def num_replicas(self) -> int:
        """Number of replicas currently receiving traffic."""
        return len(self._active)

    @property
    def replicas(self) -> list[EngineInstance]:
        """The routable engine instances, in router index order."""
        return [state.instance for state in self._active]

    @property
    def all_replicas(self) -> list[EngineInstance]:
        """Every engine instance the fleet ever ran: serving, retired, crashed."""
        return [state.instance for state in self._all_states()]

    @property
    def num_shed(self) -> int:
        """Requests rejected by admission control so far."""
        return len(self._shed)

    def queue_depths(self) -> list[int]:
        """Waiting-queue depth of every routable replica."""
        return [state.instance.num_waiting for state in self._active]

    def obs_gauge_rows(self) -> list[tuple]:
        """Per-replica gauge rows for the metrics recorder's sample boundaries."""
        return [
            (
                "queue_depth",
                (("replica", state.instance.name),),
                state.instance.num_waiting,
            )
            for state in self._active
        ]

    def is_idle(self) -> bool:
        """True when no replica (routable or draining) has work left."""
        return all(
            state.instance.is_idle() for state in self._active + self._draining
        )

    def shard_manifest(self) -> list[tuple[int, str, ReplicaSpec | None]]:
        """``(key, instance name, spec)`` per routable replica, in router order.

        The picklable description :mod:`repro.simulation.sharded` partitions
        across shards — everything a worker process needs (together with the
        fleet's model and MIL) to rebuild a replica byte-identically.
        """
        return [
            (state.key, state.instance.name, state.spec)
            for state in self._active
        ]

    def _all_serving(self) -> list[_ReplicaState]:
        return self._active + self._draining

    def _all_states(self) -> list[_ReplicaState]:
        """Every replica the fleet ever ran, for results collection.

        Serving first, then retired, then crashed — with no faults the
        crashed list is empty and the order is exactly the seed's.
        """
        return self._all_serving() + self._retired + self._crashed

    # --------------------------------------------------------------- serving

    def submit(self, request: Request, now: float) -> EngineInstance | None:
        """Admit, route, and submit one request.

        Returns the replica the request landed on, or ``None`` when admission
        control shed it (a rejection record is kept either way).  A request
        arriving while every replica is crashed is unserved: it is recorded
        as shed (the resilience summary counts it separately) — production
        has nowhere to park a request when the whole fleet is down.
        """
        self.stats.num_submitted += 1
        self.obs.emit(now, GLOBAL_KEY, "submit", request=request.request_id)
        if self.autoscaler is not None:
            self.autoscaler.observe_arrival(now)
        if self.policies is not None:
            self._policy_on_submit(now)
        if not self._active:
            self._record_unserved(request, now, arrival_time=now)
            return None
        state = self._admit_and_route(request, now, arrival_time=now,
                                      shed_reason_prefix="")
        if state is None:
            return None
        return self._dispatch(request, state, enqueue_time=now, now=now)

    def _admit_and_route(self, request: Request, now: float, *,
                         arrival_time: float,
                         shed_reason_prefix: str) -> _ReplicaState | None:
        """Admission + routing shared by :meth:`submit` and :meth:`_resubmit`.

        Returns the target replica, or None when admission shed the request
        (the rejection record is kept, stamped with ``arrival_time``).
        """
        if self.policies is not None and not self._policy_admit(
                request, now, arrival_time=arrival_time,
                shed_reason_prefix=shed_reason_prefix):
            return None
        if self.admission is not None or self.router.needs_queue_depths:
            depths = self.queue_depths()
        else:
            depths = []
        if self.admission is not None:
            decision = self.admission.admit(request, depths, now)
            if not decision.admitted:
                self._shed.append(self._rejection_record(
                    request, arrival_time=arrival_time, now=now,
                    reason=f"{shed_reason_prefix}{decision.reason}",
                ))
                self.obs.emit(
                    now, GLOBAL_KEY, "shed", request=request.request_id,
                    reason=f"{shed_reason_prefix}{decision.reason}",
                )
                return None
        state = self._active[self.router.route(request, depths)]
        self.obs.emit(now, state.key, "route", request=request.request_id,
                      replica=state.instance.name)
        return state

    def _dispatch(self, request: Request, state: _ReplicaState, *,
                  enqueue_time: float, now: float) -> EngineInstance:
        """Hand a routed request to its replica and advance that replica."""
        if (self.tier_config is not None and self.tier_config.prefetch
                and not self._degraded()):
            # Router-hint prefetch: the routing decision is the hint that the
            # target replica is about to need this prefix — warm its L1 with
            # whatever continuation sits in the host/cluster tiers while the
            # request is still queueing.  Brownout tier >= 1 pauses this
            # warming traffic (see docs/RESILIENCE.md).
            state.instance.kv.prefetch_tiers(
                request.block_hashes(state.instance.spec.kv_block_size), now=now
            )
        accepted = state.instance.submit(request, enqueue_time)
        if self.policies is not None:
            if accepted:
                self._policy_track(request, state, now)
            else:
                # The engine wrote the terminal (MIL) rejection record;
                # whatever policy state the request had is moot.
                self._policy_abandon(request.request_id)
        self._observe(state.instance.advance_to(now))
        self._refresh_event(state)
        return state.instance

    def _rejection_record(self, request: Request, *, arrival_time: float,
                          now: float, reason: str) -> FinishedRequest:
        """Build the fleet-level rejection record for a shed request."""
        return FinishedRequest(
            request_id=request.request_id,
            user_id=request.user_id,
            num_tokens=request.num_tokens,
            cached_tokens=0,
            arrival_time=arrival_time,
            start_time=now,
            finish_time=now,
            instance_name=self.name,
            engine_name=self.name,
            rejected=True,
            rejection_reason=reason,
        )

    def next_event_time(self) -> float | None:
        """Earliest internal event across routable and draining replicas."""
        return self._events.next_time()

    def advance_to(self, now: float) -> list[FinishedRequest]:
        """Advance replicas whose next event is due at or before ``now``.

        Lazily skips replicas with no due event (their state cannot change
        before their own next event fires), retires draining replicas that
        have emptied, and returns the requests that finished on the way.
        """
        finished: list[FinishedRequest] = []
        due = self._events.pop_due(now)
        if len(due) == 1:
            state = self._states_by_key[due[0]]
            finished.extend(state.instance.advance_to(now))
            self._refresh_event(state)
        elif due:
            # Advance in serving order (actives, then draining), not due
            # order: replicas sharing a cluster store commit into it in that
            # order, and the policy hooks see the batch's completions in that
            # order (of two hedge copies finishing together, the first wins).
            due_keys = set(due)
            for state in self._all_serving():
                if state.key in due_keys:
                    finished.extend(state.instance.advance_to(now))
                    self._refresh_event(state)
        self.last_advance_count = len(due)
        finished = self._observe(finished)
        self._retire_drained(now)
        return finished

    def _observe(self, finished: list[FinishedRequest]) -> list[FinishedRequest]:
        """Run completion hooks; returns the records that remain terminal.

        With policies on, hedge-loser duplicates are filtered out (their
        records are discarded so one request never double-counts) and
        completions triggered by loser cancellation chain through the same
        hooks.
        """
        if self.policies is not None and finished:
            finished = [
                record for record in finished if self._policy_finish(record)
            ]
        return finished

    # ------------------------------------------------------------ autoscaling

    def maybe_autoscale(self, now: float) -> ScaleEvent | None:
        """Ask the autoscaler for a vote and apply it; return the event, if any."""
        if self.autoscaler is None:
            return None
        vote = self.autoscaler.decide(now, len(self._active), self.queue_depths())
        if vote > 0:
            return self.scale_up(now, reason=self.autoscaler.last_reason)
        if vote < 0 and len(self._active) > 1:
            return self.scale_down(now, reason=self.autoscaler.last_reason)
        return None

    def scale_up(self, now: float, *, reason: str = "manual") -> ScaleEvent:
        """Add one replica cloned from the template spec."""
        state = self._build_replica(self.template, now=now)
        self._active.append(state)
        self.router.observe_instances(self.replicas)
        self.stats.num_scale_ups += 1
        self.stats.peak_replicas = max(self.stats.peak_replicas, len(self._active))
        event = ScaleEvent(time=now, direction="up",
                           num_replicas=len(self._active), reason=reason)
        self.scale_events.append(event)
        self.obs.emit(now, GLOBAL_KEY, "scale", direction="up",
                      replicas=len(self._active), reason=reason)
        return event

    def scale_down(self, now: float, *, reason: str = "manual") -> ScaleEvent:
        """Drain the highest-indexed replica (it keeps running until empty)."""
        if len(self._active) <= 1:
            raise ConfigurationError("cannot scale below one replica")
        state = self._active.pop()
        self._draining.append(state)
        self.router.observe_instances(self.replicas)
        self.stats.num_scale_downs += 1
        event = ScaleEvent(time=now, direction="down",
                           num_replicas=len(self._active), reason=reason)
        self.scale_events.append(event)
        self.obs.emit(now, GLOBAL_KEY, "scale", direction="down",
                      replicas=len(self._active), reason=reason)
        self._retire_drained(now)
        return event

    def _retire_drained(self, now: float) -> None:
        if not self._draining:
            return
        still_draining: list[_ReplicaState] = []
        for state in self._draining:
            if state.instance.is_idle():
                state.retired_at = now
                self._flush_retiring(state)
                self._retired.append(state)
                self._events.discard(state.key)
            else:
                still_draining.append(state)
        self._draining = still_draining

    def _flush_retiring(self, state: _ReplicaState) -> None:
        """Flush a retiring replica's cached prefixes down its KV hierarchy.

        A replica only retires once idle, so no execution lease can be
        outstanding (``KVCacheManager.drain`` enforces it).  With tiering the
        radix tree and host tier publish into the fleet-shared cluster store,
        where surviving replicas can fetch the prefixes instead of recomputing
        them; engines without prefix caching flush nothing.
        """
        if not state.instance.spec.enable_prefix_caching:
            return
        state.instance.kv.drain()

    # --------------------------------------------------------------- faults

    def apply_fault(self, event: FaultEvent, now: float) -> bool:
        """Deliver one :class:`~repro.faults.FaultEvent` to the fleet.

        Called by :func:`repro.simulation.simulator.simulate_fleet` when the
        schedule's next event wins the event merge.  Events whose target
        cannot be acted on (an already-crashed replica, an L3 outage without
        a cluster store) are skipped, not errors — a chaos schedule is
        generated against a nominal fleet and the real one may have drifted.
        Every delivery is appended to :attr:`fault_log`; returns whether the
        event was applied.
        """
        kind = event.kind
        if kind == "crash":
            applied, detail = self._fault_crash(event.replica, now)
        elif kind == "recover":
            applied, detail = self._fault_recover(event.replica, now)
        elif kind in ("slow", "slow-end"):
            applied, detail = self._fault_slow(
                event.replica, event.multiplier if kind == "slow" else 1.0
            )
            if applied and kind == "slow":
                self.resilience.num_slow_events += 1
        elif kind in ("brownout", "brownout-end"):
            self._set_brownout(event.multiplier if kind == "brownout" else 1.0)
            applied, detail = True, f"transfer-cost multiplier {self._brownout:g}"
            if kind == "brownout":
                self.resilience.num_brownouts += 1
        elif kind in ("outage", "outage-end"):
            if self.cluster_store is None:
                applied, detail = False, "fleet has no cluster store"
            else:
                self.cluster_store.set_available(kind == "outage-end")
                applied, detail = True, (
                    "cluster store unreachable" if kind == "outage"
                    else "cluster store restored"
                )
                if kind == "outage":
                    self.resilience.num_outages += 1
        elif kind == "spot_preempt":
            applied, detail = self._fault_preempt_notice(event.replica, now)
        elif kind == "spot_preempt-kill":
            state = self._fault_state(event.replica)
            if (state is None
                    or (state not in self._active
                        and state not in self._draining)):
                # Finished draining before the warning expired: a clean exit,
                # nothing left to kill.
                applied, detail = False, "replica already drained"
            else:
                applied, detail = self._fault_crash(
                    event.replica, now, allow_draining=True)
                if applied:
                    detail = f"preemption kill: {detail}"
        else:
            raise SimulationError(f"unknown fault event kind {kind!r}")
        if applied:
            self.resilience.num_faults_applied += 1
        else:
            self.resilience.num_faults_skipped += 1
        self.obs.emit(
            now, GLOBAL_KEY, "fault", fault=kind,
            replica=event.replica if event.replica is not None else "-",
            applied=applied, detail=detail,
        )
        self.fault_log.append({
            "time_s": round(now, 3),
            "kind": kind,
            "replica": event.replica if event.replica is not None else "-",
            "applied": applied,
            "detail": detail,
        })
        return applied

    def _fault_state(self, logical: int | None) -> _ReplicaState | None:
        """Resolve a logical fault target to its current replica state."""
        if logical is None:
            return None
        key = self._fault_targets.get(logical, logical)
        return self._states_by_key.get(key)

    def _fault_preempt_notice(self, logical: int | None,
                              now: float) -> tuple[bool, str]:
        """Spot-preemption warning: stop routing to the replica, let it drain.

        The replica keeps executing its queue (like a scale-down drain); if
        it empties before the paired ``spot_preempt-kill`` event fires the
        exit is clean, otherwise the kill crashes it with whatever work is
        left on board.
        """
        state = self._fault_state(logical)
        if state is None or state not in self._active:
            return False, "replica not active"
        self._active.remove(state)
        self._draining.append(state)
        if self._active:
            self.router.observe_instances(self.replicas)
        self.resilience.num_preemptions += 1
        self._retire_drained(now)
        return True, "preemption notice: draining"

    def _fault_crash(self, logical: int | None, now: float, *,
                     allow_draining: bool = False) -> tuple[bool, str]:
        """Kill a replica: drop its caches, evacuate and re-route its work."""
        state = self._fault_state(logical)
        if state is not None and state in self._active:
            self._active.remove(state)
            was_active = True
        elif allow_draining and state is not None and state in self._draining:
            self._draining.remove(state)
            was_active = False
        else:
            return False, "replica not active"
        self._events.discard(state.key)
        state.crashed = True
        state.retired_at = now
        self._crashed.append(state)
        # Lost-KV accounting: the GPU radix tree and the node's host store die
        # with the machine.  Only blocks already resident in the fleet-shared
        # cluster store survive — crash ≠ drain, nothing is flushed.
        cache = state.instance.kv.stats()
        lost_kv = state.instance.kv.num_cached_tokens
        if cache.offload_stats is not None:
            lost_kv += cache.offload_stats["current_blocks"] * state.instance.spec.kv_block_size
        running_ids: set[int] = set()
        if self.policies is not None:
            running_ids = set(state.instance.running_request_ids())
        evacuated, in_flight, lost_work = state.instance.crash(now)
        self.resilience.num_crashes += 1
        self.resilience.lost_kv_tokens += lost_kv
        self.resilience.num_lost_in_flight += in_flight
        self.resilience.lost_work_tokens += lost_work
        self._crash_times[logical] = now
        if was_active and self._active:
            self.router.observe_instances(self.replicas)
        if self.policies is not None:
            if self.policies.breakers is not None:
                self.policies.breakers.discard(state.key)
            for request in evacuated:
                self._policy_on_evacuated(request, crashed_key=state.key,
                                          was_running=request.request_id in running_ids,
                                          now=now)
        else:
            for request in evacuated:
                self._resubmit(request, now)
        return True, (
            f"evacuated {len(evacuated)} request(s) "
            f"({in_flight} in flight), lost {lost_kv} cached token(s)"
        )

    def _fault_recover(self, logical: int | None, now: float) -> tuple[bool, str]:
        """Rebuild a crashed replica and warm-restore its hot prefixes."""
        state = self._fault_state(logical)
        if state is None or not state.crashed:
            return False, "replica not crashed"
        new_state = self._build_replica(state.spec, now=now)
        new_state.recovered = True
        state.crashed = False  # repaired; a later crash targets the new instance
        self._active.append(new_state)
        self._fault_targets[logical] = new_state.key
        self.router.observe_instances(self.replicas)
        self.stats.peak_replicas = max(self.stats.peak_replicas, len(self._active))
        self.resilience.num_recoveries += 1
        crash_time = self._crash_times.pop(logical, None)
        if crash_time is not None:
            self.resilience.mttr_samples.append(now - crash_time)
        restored = self._warm_restore(new_state)
        self.resilience.warm_restored_blocks += restored
        if restored:
            self.obs.emit(now, new_state.key, "warm_restore", blocks=restored)
        return True, (
            f"rebuilt as {new_state.instance.name!r}, "
            f"warm-restored {restored} block(s)"
        )

    def _fault_slow(self, logical: int | None, multiplier: float) -> tuple[bool, str]:
        # Draining replicas are still executing work, so a degradation window
        # applies (and, crucially, *ends*) on them too — a replica that starts
        # draining mid-window must not keep the multiplier forever.
        state = self._fault_state(logical)
        if state is None or state not in self._all_serving():
            return False, "replica not serving"
        state.instance.slowdown = multiplier
        return True, f"service-time multiplier {multiplier:g}"

    def _set_brownout(self, multiplier: float) -> None:
        self._brownout = multiplier
        if self.cluster_store is not None:
            self.cluster_store.cost_multiplier = multiplier
        for state in self._all_serving():
            state.instance.kv.set_transfer_cost_multiplier(multiplier)

    def _warm_restore(self, state: _ReplicaState) -> int:
        """Stage the cluster store's hottest blocks into a rebuilt replica's L2."""
        if self.cluster_store is None or self.warm_restore_blocks <= 0:
            return 0
        tiers = state.instance.kv.tiers
        if tiers is None:
            return 0
        resident = self.cluster_store.resident_hashes()  # LRU order, [] in outage
        hottest = resident[-self.warm_restore_blocks:]
        return tiers.warm_restore(hottest)

    def _record_unserved(self, request: Request, now: float, *,
                         arrival_time: float) -> None:
        self.resilience.num_unserved += 1
        self._shed.append(self._rejection_record(
            request, arrival_time=arrival_time, now=now,
            reason="no active replicas (fleet-wide crash)",
        ))
        self.obs.emit(now, GLOBAL_KEY, "shed", request=request.request_id,
                      reason="no active replicas (fleet-wide crash)")

    def _resubmit(self, request: Request, now: float) -> EngineInstance | None:
        """Re-route one evacuated request after its replica crashed.

        Mirrors :meth:`submit` — admission control and the router both get a
        say, so a retry storm can legitimately be shed — but does not count
        as new offered load (no arrival observation, no ``num_submitted``).
        The request re-enqueues (and any shed/unserved record is stamped)
        with its *original* arrival time, so its eventual latency honestly
        spans the crash it survived.
        """
        self.resilience.num_retried += 1
        self.retried_request_ids.append(request.request_id)
        self.obs.emit(now, GLOBAL_KEY, "retry", request=request.request_id)
        if not self._active:
            self._record_unserved(request, now, arrival_time=request.arrival_time)
            return None
        state = self._admit_and_route(request, now,
                                      arrival_time=request.arrival_time,
                                      shed_reason_prefix="retry shed: ")
        if state is None:
            if self.policies is not None:
                # The shed/unserved record is the request's terminal record.
                self._policy_abandon(request.request_id)
            return None
        return self._dispatch(request, state,
                              enqueue_time=request.arrival_time, now=now)

    # ------------------------------------------------------------- policies

    def _degraded(self) -> bool:
        """True while the degrade controller holds brownout tier >= 1."""
        return (self.policies is not None
                and self.policies.degrade is not None
                and self.policies.degrade.tier >= 1)

    def _policy_on_submit(self, now: float) -> None:
        """Per-arrival policy upkeep: breaker clock + degrade pressure sample."""
        policies = self.policies
        if policies.breakers is not None:
            policies.breakers.clock = now
        if policies.degrade is not None and self._active:
            pressure = sum(
                state.instance.num_waiting for state in self._active
            ) / len(self._active)
            policies.degrade.observe(pressure, now)

    def _policy_admit(self, request: Request, now: float, *,
                      arrival_time: float, shed_reason_prefix: str) -> bool:
        """Degrade-tier admission: shed low-priority tenants in tier 2."""
        degrade = self.policies.degrade
        if degrade is None or degrade.tier < 2:
            return True
        tenant = request.metadata.get("tenant")
        if tenant not in degrade.policy.low_priority_tenants:
            return True
        reason = (
            f"{shed_reason_prefix}degraded: low-priority tenant {tenant!r} shed"
        )
        self.resilience.num_degrade_sheds += 1
        self._shed.append(self._rejection_record(
            request, arrival_time=arrival_time, now=now, reason=reason,
        ))
        self.obs.emit(now, GLOBAL_KEY, "shed", request=request.request_id,
                      reason=reason)
        self._policy_abandon(request.request_id)
        return False

    def _policy_track(self, request: Request, state: _ReplicaState,
                      now: float) -> None:
        """Start (or re-point) the policy bookkeeping of a dispatched request."""
        policies = self.policies
        rid = request.request_id
        tracked = self._tracked.get(rid)
        if tracked is None:
            tracked = TrackedRequest(request=request, primary_key=state.key)
            self._tracked[rid] = tracked
            if policies.deadline is not None:
                self._policy_events.update(
                    rid * 4 + _TIMER_DEADLINE,
                    request.arrival_time + policies.deadline.timeout_s,
                )
        else:
            tracked.primary_key = state.key
            tracked.retry_pending = False
        if policies.hedge is not None and tracked.hedge_key is None:
            delay = policies.hedge_delay()
            if delay is not None:
                self._policy_events.update(rid * 4 + _TIMER_HEDGE, now + delay)

    def _policy_cancel_timers(self, rid: int) -> None:
        for slot in (_TIMER_DEADLINE, _TIMER_HEDGE, _TIMER_RETRY):
            self._policy_events.discard(rid * 4 + slot)

    def _policy_abandon(self, rid: int) -> None:
        """Drop a request's policy state (a terminal record exists elsewhere)."""
        self._policy_cancel_timers(rid)
        self._tracked.pop(rid, None)

    def _state_by_name(self, instance_name: str) -> _ReplicaState | None:
        for state in self._all_states():
            if state.instance.name == instance_name:
                return state
        return None

    def _policy_finish(self, record: FinishedRequest) -> bool:
        """Completion hook; False drops the record (a hedge-loser duplicate)."""
        tracked = self._tracked.get(record.request_id)
        if tracked is None:
            return True
        now = record.finish_time
        policies = self.policies
        if tracked.done:
            # The hedge loser completed in the same event batch as the
            # winner: too late to cancel, so unrecord it — one request, one
            # completion — and bill the duplicate's full work as waste.
            state = self._state_by_name(record.instance_name)
            if state is not None:
                state.instance.discard_finished(record.request_id)
            self.resilience.hedge_wasted_tokens += record.num_tokens
            self._tracked.pop(record.request_id, None)
            return False
        tracked.done = True
        self._policy_cancel_timers(record.request_id)
        winner_is_hedge = record.instance_name == tracked.hedge_name
        if winner_is_hedge:
            self.resilience.num_hedge_wins += 1
        loser_key = tracked.primary_key if winner_is_hedge else tracked.hedge_key
        loser_outstanding = False
        if loser_key is not None:
            loser_state = self._states_by_key.get(loser_key)
            cancelled = None
            if loser_state is not None:
                cancelled = loser_state.instance.cancel(record.request_id, now)
                if cancelled is not None:
                    if cancelled == "running":
                        # The duplicate burned real compute before losing.
                        self.resilience.hedge_wasted_tokens += record.num_tokens
                    # The freed stage can start queued work immediately;
                    # chained completions flow through the same hooks.
                    self._observe(loser_state.instance.advance_to(now))
                    self._refresh_event(loser_state)
            # cancel() returning None means the loser already completed —
            # its record is later in this very batch; keep `tracked` so the
            # done-branch above catches and discards it.
            loser_outstanding = cancelled is None
        if not loser_outstanding:
            self._tracked.pop(record.request_id, None)
        policies.record_latency(record.latency)
        if policies.breakers is not None:
            winner_key = (
                tracked.hedge_key if winner_is_hedge else tracked.primary_key
            )
            if winner_key is not None:
                policies.breakers.clock = now
                policies.breakers.on_success(winner_key, record.latency, now)
        return True

    def next_policy_time(self) -> float | None:
        """Earliest pending policy timer (deadline / hedge / retry), if any."""
        if self.policies is None:
            return None
        return self._policy_events.next_time()

    def apply_policy_timers(self, now: float) -> None:
        """Fire every policy timer due at or before ``now``, in time order."""
        if self.policies is None:
            return
        if self.policies.breakers is not None:
            self.policies.breakers.clock = now
        for key in self._policy_events.pop_due(now):
            self._policy_events.discard(key)
            rid, slot = key >> 2, key & 3
            if slot == _TIMER_DEADLINE:
                self._policy_deadline_fire(rid, now)
            elif slot == _TIMER_HEDGE:
                self._policy_hedge_fire(rid, now)
            else:
                self._policy_retry_fire(rid, now)

    def _policy_deadline_fire(self, rid: int, now: float) -> None:
        """Cancel every live copy of a request that exceeded its deadline."""
        tracked = self._tracked.get(rid)
        if tracked is None or tracked.done:
            return
        request = tracked.request
        cancelled_any = False
        for copy_key in (tracked.primary_key, tracked.hedge_key):
            if copy_key is None:
                continue
            state = self._states_by_key.get(copy_key)
            if state is None:
                continue
            where = state.instance.cancel(rid, now)
            if where is not None:
                cancelled_any = True
                self._observe(state.instance.advance_to(now))
                self._refresh_event(state)
        if tracked.retry_pending:
            # The request was waiting out a retry backoff: no live copy, but
            # the pending re-execution is what the deadline cancels.
            tracked.retry_pending = False
            cancelled_any = True
        if not cancelled_any:
            # Completed concurrently; the finish path owns the cleanup.
            return
        tracked.done = True
        self._policy_abandon(rid)
        self.resilience.num_deadline_missed += 1
        timeout = self.policies.deadline.timeout_s
        self._cancelled.append(self._rejection_record(
            request, arrival_time=request.arrival_time, now=now,
            reason=f"deadline missed after {timeout:g}s",
        ))
        self.obs.emit(now, GLOBAL_KEY, "deadline_miss", request=rid,
                      timeout_s=timeout)
        if self.policies.breakers is not None:
            self.policies.breakers.on_failure(tracked.primary_key, now)

    def _policy_hedge_fire(self, rid: int, now: float) -> None:
        """Duplicate a straggler onto the least-loaded other replica."""
        tracked = self._tracked.get(rid)
        if (tracked is None or tracked.done or tracked.retry_pending
                or tracked.hedge_key is not None):
            return
        if len(self._active) < 2:
            return
        primary = self._states_by_key.get(tracked.primary_key)
        if primary is None or not primary.instance.has_request(rid):
            return
        request = tracked.request
        candidates = [
            (state.instance.num_waiting, index)
            for index, state in enumerate(self._active)
            if state.key != tracked.primary_key
            and request.num_tokens <= state.instance.max_input_length
        ]
        if not candidates:
            return
        target = self._active[min(candidates)[1]]
        if not target.instance.submit(request, request.arrival_time):
            return
        tracked.hedge_key = target.key
        tracked.hedge_name = target.instance.name
        self.resilience.num_hedges += 1
        self.obs.emit(now, target.key, "hedge", request=rid,
                      replica=target.instance.name)
        self._observe(target.instance.advance_to(now))
        self._refresh_event(target)

    def _policy_retry_fire(self, rid: int, now: float) -> None:
        """Re-execute a crash-evacuated request after its backoff elapsed."""
        tracked = self._tracked.get(rid)
        if tracked is None or tracked.done or not tracked.retry_pending:
            return
        tracked.retry_pending = False
        tracked.attempts += 1
        if self._resubmit(tracked.request, now) is None:
            # Shed or unserved at re-route; that record is terminal.
            self._policy_abandon(rid)

    def _policy_on_evacuated(self, request: Request, *, crashed_key: int,
                             was_running: bool, now: float) -> None:
        """Policy-aware crash evacuation of one request.

        A surviving hedge copy absorbs the loss (nothing retries, and the
        lost-work accounting is rolled back — the request's compute is still
        in flight elsewhere, so hedging never inflates lost tokens);
        otherwise the retry policy schedules a backoff re-execution, bounded
        by per-request attempts and the per-tenant budget.
        """
        rid = request.request_id
        tracked = self._tracked.get(rid)
        policies = self.policies
        if tracked is not None and not tracked.done:
            if tracked.hedge_key == crashed_key:
                tracked.hedge_key = None
                tracked.hedge_name = None
                if was_running:
                    self.resilience.lost_work_tokens -= request.num_tokens
                    self.resilience.num_lost_in_flight -= 1
                return
            if tracked.primary_key == crashed_key and tracked.hedge_key is not None:
                tracked.primary_key = tracked.hedge_key
                tracked.hedge_key = None
                tracked.hedge_name = None
                if was_running:
                    self.resilience.lost_work_tokens -= request.num_tokens
                    self.resilience.num_lost_in_flight -= 1
                return
        if policies.retry is None:
            self._resubmit(request, now)
            return
        attempts = tracked.attempts if tracked is not None else 1
        tenant = request.metadata.get("tenant")
        if attempts >= policies.retry.max_attempts:
            self._policy_retry_exhausted(
                request, now,
                reason=f"retry attempts exhausted ({attempts} of "
                       f"{policies.retry.max_attempts})",
            )
            return
        if not policies.try_consume_retry_budget(tenant):
            self._policy_retry_exhausted(
                request, now,
                reason=(
                    f"tenant retry budget exhausted "
                    f"({policies.retry.budget_per_tenant} for {tenant!r})"
                ),
            )
            return
        if tracked is None:
            tracked = TrackedRequest(request=request, primary_key=crashed_key)
            self._tracked[rid] = tracked
        tracked.retry_pending = True
        self._policy_events.discard(rid * 4 + _TIMER_HEDGE)
        delay = policies.retry_delay(rid, tracked.attempts)
        self._policy_events.update(rid * 4 + _TIMER_RETRY, now + delay)

    def _policy_retry_exhausted(self, request: Request, now: float, *,
                                reason: str) -> None:
        self.resilience.num_retry_exhausted += 1
        self._policy_abandon(request.request_id)
        self._cancelled.append(self._rejection_record(
            request, arrival_time=request.arrival_time, now=now, reason=reason,
        ))
        self.obs.emit(now, GLOBAL_KEY, "shed", request=request.request_id,
                      reason=reason)

    def _on_breaker_transition(self, key: int, old: str, new: str,
                               now: float) -> None:
        if new == "open":
            self.resilience.num_breaker_opens += 1
        elif new == "closed":
            self.resilience.num_breaker_closes += 1
        state = self._states_by_key.get(key)
        self.obs.emit(
            now, key, "breaker",
            replica=state.instance.name if state is not None else key,
            **{"from": old, "to": new},
        )

    def _on_degrade_transition(self, old: int, new: int, now: float) -> None:
        self.obs.emit(now, GLOBAL_KEY, "degrade", **{"from": old, "to": new})
        if self.cluster_store is not None:
            # Tier >= 1 pauses L3 publish traffic (demotions, drains); reads
            # stay up — serving beats cache durability in a brownout.
            self.cluster_store.set_publish_paused(new >= 1)

    def resilience_summary(self, summary):
        """Summarise fault/recovery accounting for the whole run.

        Args:
            summary: The run's :class:`~repro.simulation.metrics.LatencySummary`
                (supplies the makespan and completion count goodput is
                measured against).

        Returns a :class:`~repro.simulation.metrics.ResilienceSummary`.  The
        warm-restore hit rate is measured over the replicas fault recovery
        built: the fraction of their input tokens served from the host or
        cluster tiers instead of being recomputed cold.
        """
        from repro.simulation.metrics import summarize_resilience

        warm_hit_tokens = 0
        warm_total_tokens = 0
        for state in self._all_states():
            if not state.recovered:
                continue
            cache = state.instance.kv.stats()
            warm_total_tokens += cache.tokens_total
            if cache.tier_stats is not None:
                warm_hit_tokens += (
                    cache.tier_stats["tokens_hit_host"]
                    + cache.tier_stats["tokens_hit_cluster"]
                )
        if self.policies is not None and self.policies.degrade is not None:
            self.policies.degrade.finalize(summary.makespan)
            self.resilience.degraded_seconds = (
                self.policies.degrade.degraded_seconds
            )
        return summarize_resilience(
            self.resilience,
            fault_log=tuple(self.fault_log),
            num_submitted=self.stats.num_submitted,
            num_finished=summary.num_requests,
            makespan=summary.makespan,
            warm_hit_tokens=warm_hit_tokens,
            warm_total_tokens=warm_total_tokens,
            include_policy=self.policies is not None,
        )

    # -------------------------------------------------------------- results

    def finished_requests(self) -> list[FinishedRequest]:
        """Completion records across every replica the fleet ever ran."""
        records: list[FinishedRequest] = []
        for state in self._all_states():
            records.extend(state.instance.finished_requests)
        return records

    def rejected_requests(self) -> list[FinishedRequest]:
        """Engine rejections, admission sheds, and policy cancellations."""
        records: list[FinishedRequest] = []
        for state in self._all_states():
            records.extend(state.instance.rejected_requests)
        records.extend(self._shed)
        records.extend(self._cancelled)
        return records

    def shed_requests(self) -> list[FinishedRequest]:
        """Only the requests shed by admission control."""
        return list(self._shed)

    def cache_stats(self) -> list[dict]:
        """Per-replica prefix-cache statistics (including retired replicas)."""
        return [
            cache_row(state.instance.name, state.instance.kv.stats())
            for state in self._all_states()
        ]

    def tier_summary(self):
        """Aggregate per-tier hit / transfer accounting for the whole run.

        Returns a :class:`~repro.simulation.metrics.TierSummary`, or None when
        the fleet runs without tiering.
        """
        if self.tier_config is None:
            return None
        from repro.simulation.metrics import summarize_tiers

        cache_stats = [
            state.instance.kv.stats()
            for state in self._all_states()
        ]
        cluster_stats = (
            self.cluster_store.stats if self.cluster_store is not None else None
        )
        return summarize_tiers(cache_stats, cluster_stats)

    def replica_reports(self, end_time: float) -> list[dict]:
        """Per-replica utilisation / hit-rate rows for fleet summaries.

        Args:
            end_time: Simulated time the run ended (upper bound of every
                replica's active window).
        """
        reports: list[dict] = []
        for state in self._all_states():
            until = state.retired_at if state.retired_at is not None else end_time
            instance = state.instance
            reports.append(replica_report(
                instance.name, len(instance.finished_requests),
                instance.busy_time, max(until - state.created_at, 0.0),
                instance.kv.stats(),
            ))
        return reports


# ------------------------------------------------------------ report rows


def cache_row(name: str, cache: CacheStats) -> dict:
    """One replica's row of :meth:`Fleet.cache_stats`."""
    row = {
        "instance": name,
        "requests": cache.requests,
        "request_hit_rate": round(cache.request_hit_rate, 3),
        "token_hit_rate": round(cache.token_hit_rate, 3),
    }
    if cache.tier_stats is not None:
        total = max(cache.tokens_total, 1)
        row["host_hit_rate"] = round(cache.tier_stats["tokens_hit_host"] / total, 3)
        row["cluster_hit_rate"] = round(
            cache.tier_stats["tokens_hit_cluster"] / total, 3
        )
    return row


def replica_report(name: str, finished: int, busy_seconds: float,
                   active_seconds: float, cache: CacheStats) -> dict:
    """One replica's row of :meth:`Fleet.replica_reports`.

    Carries what :func:`~repro.simulation.metrics.summarize_fleet` reads:
    the name, finished count, busy-time utilisation over the replica's
    active window, token hit rate and, with an offload store, its counters.
    """
    report = {
        "replica": name,
        "finished": finished,
        "utilization": (
            min(busy_seconds / active_seconds, 1.0) if active_seconds > 0 else 0.0
        ),
        "token_hit_rate": cache.token_hit_rate,
    }
    if cache.offload_stats is not None:
        report["offload_stored"] = cache.offload_stats["stored_blocks"]
        report["offload_loaded"] = cache.offload_stats["loaded_blocks"]
        report["offload_evicted"] = cache.offload_stats["evicted_blocks"]
    return report
