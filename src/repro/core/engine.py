"""Engine specification and the simulated engine instance.

An :class:`EngineSpec` captures everything that distinguishes the paper's five
engines from each other — execution mode, scheduling policy, whether the prefix
cache is used, whether the full KV cache must be reserved during a forward
pass, and the parallelism degrees.  :class:`EngineInstance` then executes any
spec on the shared substrates (latency model, memory model, KV-cache manager)
inside the discrete-event simulation.

Per §6.1 of the paper, prefill-only inference is compute-bound, so batching
requests does not raise throughput; every engine therefore serves one request
at a time per pipeline stage, and parallel engines differ only in how a single
request's work is spread across GPUs.

The paper's engine is built by :func:`prefillonly_engine_spec`; the baselines
live in :mod:`repro.baselines`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core.profile_run import ProfileRunResult, run_profile
from repro.core.request_state import EngineRequest
from repro.core.scheduler import DEFAULT_FAIRNESS_LAMBDA, Scheduler, make_scheduler
from repro.errors import CapacityError, ConfigurationError, SchedulingError
from repro.hardware.gpu import GPUSpec
from repro.hardware.interconnect import Interconnect, PCIE_GEN4
from repro.kvcache.manager import ExecutionLease, KVCacheManager
from repro.model.config import ModelConfig
from repro.model.latency import LatencyModel
from repro.model.memory import PrefillMode
from repro.obs.recorder import NULL_RECORDER
from repro.workloads.trace import Request

_TIME_EPSILON = 1e-9


@dataclass(frozen=True)
class EngineSpec:
    """Configuration of one engine flavour.

    Attributes:
        name: Engine name used in reports (``"prefillonly"``, ``"paged-attention"``, ...).
        prefill_mode: How the forward pass is executed.
        scheduling_policy: ``"fcfs"``, ``"srjf"``, or ``"srjf-calibrated"``.
        reserve_full_kv: Whether the uncached tokens' KV must be drawn from the
            block pool for the whole forward pass (True for vLLM-style baselines).
        retain_kv_layers: Layers of KV kept live during a hybrid pass.
        tensor_parallel / pipeline_parallel: Parallel degrees per instance.
        chunk_tokens: Chunk size for chunked / hybrid prefilling.
        enable_prefix_caching: Whether the prefix cache is consulted at all;
            when False, a finished request's KV is never committed.
        fairness_lambda: λ of Algorithm 1 for the SRJF schedulers.
        kv_block_size: Tokens per KV block.
        cpu_offload_gib: Host-memory budget (GiB) for offloaded KV blocks.
            A positive budget without KV tiers spills each commit's overflow
            into a flat CPU offload store instead of discarding it (the §9
            extension of the paper: offload instead of discard, LMCache-style).
        kv_capacity_tokens: Optional cap on the GPU KV-cache budget (tokens).
            The profile run still decides the real budget; the cap only lowers
            it, which is how equal-GPU-capacity experiments (e.g. tiering vs
            suffix discard) hold the L1 size constant.
        description: One-line description for reports.
    """

    name: str
    prefill_mode: PrefillMode
    scheduling_policy: str
    reserve_full_kv: bool
    retain_kv_layers: int | None = None
    tensor_parallel: int = 1
    pipeline_parallel: int = 1
    chunk_tokens: int = 2048
    enable_prefix_caching: bool = True
    fairness_lambda: float = DEFAULT_FAIRNESS_LAMBDA
    kv_block_size: int = 256
    cpu_offload_gib: float = 0.0
    kv_capacity_tokens: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1 or self.pipeline_parallel < 1:
            raise ConfigurationError("parallel degrees must be >= 1")
        if self.chunk_tokens <= 0:
            raise ConfigurationError("chunk_tokens must be positive")
        if self.kv_block_size <= 0:
            raise ConfigurationError("kv_block_size must be positive")
        if self.kv_capacity_tokens is not None and self.kv_capacity_tokens < 0:
            raise ConfigurationError("kv_capacity_tokens must be non-negative")

    @property
    def gpus_per_instance(self) -> int:
        """GPUs one engine instance occupies."""
        return self.tensor_parallel * self.pipeline_parallel

    def with_overrides(self, **overrides) -> "EngineSpec":
        """Return a copy with some fields replaced (used by ablation benches)."""
        return replace(self, **overrides)


def prefillonly_engine_spec(*, fairness_lambda: float = DEFAULT_FAIRNESS_LAMBDA,
                            chunk_tokens: int = 2048,
                            scheduling_policy: str = "srjf-calibrated",
                            kv_block_size: int = 256,
                            cpu_offload_gib: float = 0.0) -> EngineSpec:
    """The paper's engine: hybrid prefilling + suffix discarding + calibrated SRJF.

    Pass a non-zero ``cpu_offload_gib`` to enable the §9 extension (offload
    the suffix KV cache to host memory instead of discarding it).
    """
    return EngineSpec(
        name="prefillonly",
        prefill_mode=PrefillMode.HYBRID,
        scheduling_policy=scheduling_policy,
        reserve_full_kv=False,
        retain_kv_layers=1,
        chunk_tokens=chunk_tokens,
        fairness_lambda=fairness_lambda,
        kv_block_size=kv_block_size,
        cpu_offload_gib=cpu_offload_gib,
        description="PrefillOnly: hybrid prefilling, suffix KV discarding, SRJF with "
                    "continuous JCT calibration",
    )


def kv_block_bytes(spec: EngineSpec, model: ModelConfig) -> int:
    """Bytes of one KV block under ``spec``'s sharding of ``model``.

    The single source of truth for block sizing: engines size their offload /
    tier stores with it, and the fleet sizes the shared cluster store with it
    (and asserts that every replica agrees, since the shared store keys
    blocks by content hash).
    """
    return max(int(
        spec.kv_block_size
        * model.kv_bytes_per_token
        / (spec.tensor_parallel * spec.pipeline_parallel)
    ), 1)


@dataclass(frozen=True)
class FinishedRequest:
    """Record of one completed (or rejected) request, used for all metrics."""

    request_id: int
    user_id: str
    num_tokens: int
    cached_tokens: int
    arrival_time: float
    start_time: float
    finish_time: float
    instance_name: str
    engine_name: str
    rejected: bool = False
    rejection_reason: str | None = None

    @property
    def latency(self) -> float:
        """End-to-end latency (queueing + execution)."""
        return self.finish_time - self.arrival_time

    @property
    def queueing_time(self) -> float:
        return self.start_time - self.arrival_time

    @property
    def execution_time(self) -> float:
        return self.finish_time - self.start_time

    @property
    def had_cache_hit(self) -> bool:
        return self.cached_tokens > 0


@dataclass
class _RunningJob:
    """A request occupying one pipeline stage."""

    engine_request: EngineRequest
    lease: ExecutionLease
    stage_times: list[float]
    stage_finish_time: float
    cached_tokens: int
    #: True once the current stage's work is done; the job may still sit in the
    #: stage if the next stage is occupied (a pipeline bubble / blocking).
    stage_done: bool = False


@dataclass
class _Stage:
    """One pipeline stage (a plain executor for non-PP engines)."""

    index: int
    job: _RunningJob | None = None
    busy_time: float = 0.0

    @property
    def is_free(self) -> bool:
        return self.job is None


class EngineInstance:
    """One engine instance: a scheduler, a KV cache, and pipeline stage(s).

    Args:
        spec: Engine flavour.
        model: Model served.
        gpu: GPU type of each shard.
        interconnect: Link between shards (needed when TP or PP > 1).
        max_input_length: User-provided MIL used by the profile run.
        name: Instance name (unique within a serving system).
        tier_config: Optional tiered prefix-cache configuration
            (:class:`~repro.spec.models.KVTiersSpec`).  When enabled, the
            instance runs a GPU -> host -> cluster hierarchy instead of the
            flat offload store, and a commit's suffix overflow demotes down
            the tiers instead of being discarded.
        cluster_store: The fleet-shared L3 store (injected by the owning
            :class:`~repro.cluster.Fleet`); None runs a two-tier hierarchy.

    Raises:
        CapacityError: if the profile run shows that a ``max_input_length``-token
            request cannot be served by this spec on this GPU.
    """

    def __init__(self, spec: EngineSpec, model: ModelConfig, gpu: GPUSpec, *,
                 interconnect: Interconnect | None = None,
                 max_input_length: int, name: str = "instance-0",
                 tier_config=None, cluster_store=None) -> None:
        if spec.gpus_per_instance > 1 and interconnect is None:
            raise ConfigurationError(
                f"engine {spec.name!r} uses {spec.gpus_per_instance} GPUs per instance "
                "and therefore needs an interconnect"
            )
        self.spec = spec
        self.name = name
        self.model = model
        self.gpu = gpu
        self._latency = LatencyModel(model, gpu, interconnect)
        self.profile: ProfileRunResult = run_profile(
            model, gpu,
            max_input_length=max_input_length,
            mode=spec.prefill_mode,
            chunk_tokens=spec.chunk_tokens,
            retain_kv_layers=spec.retain_kv_layers,
            tensor_parallel=spec.tensor_parallel,
            pipeline_parallel=spec.pipeline_parallel,
        )
        kv_bytes_per_block = kv_block_bytes(spec, model)
        kv_budget_tokens = self.profile.kv_budget_tokens
        if spec.kv_capacity_tokens is not None:
            kv_budget_tokens = min(kv_budget_tokens, spec.kv_capacity_tokens)

        tiers = None
        offload_store = None
        if tier_config is not None and tier_config.enabled:
            from repro.kvcache.tiers import build_tiered_store

            # The replica's uncached prefill rate, used to express tier
            # transfer seconds in compute-token units for JCT scoring.
            full_pass = self._latency.prefill_time(
                max_input_length,
                num_cached_tokens=0,
                mode=spec.prefill_mode,
                chunk_tokens=spec.chunk_tokens,
                tensor_parallel=spec.tensor_parallel,
                pipeline_parallel=spec.pipeline_parallel,
            ).total
            tiers = build_tiered_store(
                tier_config,
                replica=name,
                block_size=spec.kv_block_size,
                block_bytes=kv_bytes_per_block,
                cluster=cluster_store,
                compute_tokens_per_second=(
                    max_input_length / full_pass if full_pass > 0 else 0.0
                ),
            )
        elif spec.cpu_offload_gib > 0:
            from repro.kvcache.offload import CPUOffloadStore

            offload_store = CPUOffloadStore(
                capacity_bytes=int(spec.cpu_offload_gib * (1 << 30)),
                block_bytes=kv_bytes_per_block,
                link=interconnect if interconnect is not None else PCIE_GEN4,
            )
        self.kv = KVCacheManager(
            kv_budget_tokens,
            block_size=spec.kv_block_size,
            offload_store=offload_store,
            tiers=tiers,
            enable_prefix_caching=spec.enable_prefix_caching,
        )
        self.scheduler: Scheduler = make_scheduler(
            spec.scheduling_policy, fairness_lambda=spec.fairness_lambda,
        )
        self._waiting: list[EngineRequest] = []
        self._stages = [_Stage(index=i) for i in range(spec.pipeline_parallel)]
        self._finished: list[FinishedRequest] = []
        self._rejected: list[FinishedRequest] = []
        #: Service-time multiplier applied to work *started* while it is set.
        #: 1.0 (the default) is a bit-exact no-op; the fault subsystem raises
        #: it to model a degraded (slow) node.
        self.slowdown: float = 1.0
        #: Observability hooks: the recorder this engine reports start/finish
        #: span events to (the no-op null recorder unless a traced fleet
        #: installs its own) and the replica key events are attributed to.
        self.obs = NULL_RECORDER
        self.obs_key = 0

    # ---------------------------------------------------------------- state

    @property
    def max_input_length(self) -> int:
        """The MIL this instance was provisioned for."""
        return self.profile.max_input_length

    @property
    def num_waiting(self) -> int:
        return len(self._waiting)

    @property
    def num_running(self) -> int:
        return sum(1 for stage in self._stages if stage.job is not None)

    @property
    def finished_requests(self) -> list[FinishedRequest]:
        """All completion records so far (does not include rejections)."""
        return list(self._finished)

    @property
    def rejected_requests(self) -> list[FinishedRequest]:
        return list(self._rejected)

    @property
    def busy_time(self) -> float:
        """Aggregate stage-busy seconds (for utilisation reports)."""
        return sum(stage.busy_time for stage in self._stages)

    def is_idle(self) -> bool:
        """True when nothing is waiting or running."""
        return not self._waiting and all(stage.is_free for stage in self._stages)

    # --------------------------------------------------------------- submit

    def submit(self, request: Request, now: float) -> bool:
        """Add a request to the waiting queue.

        Returns False (and records a rejection) when the request exceeds the
        engine's maximum input length and can therefore never be served.
        """
        if request.num_tokens > self.max_input_length:
            record = FinishedRequest(
                request_id=request.request_id,
                user_id=request.user_id,
                num_tokens=request.num_tokens,
                cached_tokens=0,
                arrival_time=now,
                start_time=now,
                finish_time=now,
                instance_name=self.name,
                engine_name=self.spec.name,
                rejected=True,
                rejection_reason=(
                    f"request has {request.num_tokens} tokens but the engine's maximum "
                    f"input length is {self.max_input_length}"
                ),
            )
            self._rejected.append(record)
            return False
        engine_request = EngineRequest(
            request=request,
            block_hashes=request.block_hashes(self.spec.kv_block_size),
            enqueue_time=now,
        )
        self.scheduler.on_submit(engine_request, self.kv, now)
        self._waiting.append(engine_request)
        return True

    def _dequeue(self, engine_request: EngineRequest) -> None:
        """Take a request off the waiting queue (started, rejected or cancelled)."""
        self._waiting.remove(engine_request)
        self.scheduler.on_remove(engine_request)

    # ------------------------------------------------------------ execution

    def _stage_times(self, uncached_tokens: int, cached_tokens: int) -> list[float]:
        """Per-stage service times of one request."""
        timing = self._latency.prefill_time(
            uncached_tokens,
            num_cached_tokens=cached_tokens,
            mode=self.spec.prefill_mode,
            chunk_tokens=self.spec.chunk_tokens,
            tensor_parallel=self.spec.tensor_parallel,
            pipeline_parallel=self.spec.pipeline_parallel,
        )
        stages = self.spec.pipeline_parallel
        return [timing.total / stages * self.slowdown] * stages

    def _try_start_next(self, now: float) -> bool:
        """Admit one waiting request into stage 0 if possible."""
        stage0 = self._stages[0]
        if not stage0.is_free or not self._waiting:
            return False
        decision = self.scheduler.select(self._waiting, self.kv, now)
        if decision is None:
            return False
        engine_request = decision.request
        try:
            lease = self.kv.begin_execution(
                engine_request.block_hashes,
                engine_request.num_tokens,
                reserve_full_kv=self.spec.reserve_full_kv,
                now=now,
            )
        except CapacityError as exc:
            if self.num_running > 0:
                # Another in-flight request holds the pool; retry after it finishes.
                return False
            self._dequeue(engine_request)
            self._rejected.append(FinishedRequest(
                request_id=engine_request.request_id,
                user_id=engine_request.user_id,
                num_tokens=engine_request.num_tokens,
                cached_tokens=0,
                arrival_time=engine_request.enqueue_time,
                start_time=now,
                finish_time=now,
                instance_name=self.name,
                engine_name=self.spec.name,
                rejected=True,
                rejection_reason=str(exc),
            ))
            return True

        self._dequeue(engine_request)
        engine_request.start_time = now

        # §9 extension: a prefix continuation resident below the GPU — in the
        # flat offload store or in the host/cluster tiers — can be streamed
        # back instead of recomputed; the transfer time is charged to the
        # first stage.
        offloaded_tokens = 0
        offload_load_time = 0.0
        if self.kv.has_tiers:
            offloaded_tokens, offload_load_time = self.kv.fetch_tiers(
                engine_request.block_hashes, now=now
            )
        elif self.spec.cpu_offload_gib > 0:
            _, offloaded_tokens, offload_load_time = self.kv.lookup_with_offload(
                engine_request.block_hashes
            )
        total_cached = lease.cached_tokens + offloaded_tokens
        uncached = engine_request.num_tokens - total_cached
        stage_times = self._stage_times(uncached, total_cached)
        stage_times[0] += offload_load_time
        stage0.job = _RunningJob(
            engine_request=engine_request,
            lease=lease,
            stage_times=stage_times,
            stage_finish_time=now + stage_times[0],
            cached_tokens=total_cached,
        )
        stage0.busy_time += stage_times[0]
        self.obs.emit(
            now, self.obs_key, "start",
            request=engine_request.request_id,
            queued_s=now - engine_request.enqueue_time,
            cached_tokens=total_cached,
        )
        return True

    def _complete_job(self, job: _RunningJob, now: float) -> FinishedRequest:
        engine_request = job.engine_request
        self.kv.finish_execution(job.lease, now=now)
        record = FinishedRequest(
            request_id=engine_request.request_id,
            user_id=engine_request.user_id,
            num_tokens=engine_request.num_tokens,
            cached_tokens=job.cached_tokens,
            arrival_time=engine_request.enqueue_time,
            start_time=engine_request.start_time if engine_request.start_time is not None else now,
            finish_time=now,
            instance_name=self.name,
            engine_name=self.spec.name,
        )
        self._finished.append(record)
        attrs = {
            "request": record.request_id,
            "latency_s": record.latency,
            "tokens": record.num_tokens,
        }
        tenant = engine_request.request.metadata.get("tenant")
        if tenant is not None:
            attrs["tenant"] = tenant
        self.obs.emit(now, self.obs_key, "finish", **attrs)
        return record

    # --------------------------------------------------------------- events

    def next_event_time(self) -> float | None:
        """Earliest internal event (a stage finishing), or None when idle.

        Jobs that already finished their stage but are blocked behind a busy
        downstream stage generate no event of their own — they move when the
        blocking stage's completion event fires.
        """
        times = [
            stage.job.stage_finish_time
            for stage in self._stages
            if stage.job is not None and not stage.job.stage_done
        ]
        return min(times) if times else None

    def advance_to(self, now: float) -> list[FinishedRequest]:
        """Process every internal event due at or before ``now``.

        Completes stage work that has finished, moves jobs down the pipeline,
        and admits new requests into stage 0.  Returns the requests that
        completed during this call.
        """
        finished: list[FinishedRequest] = []
        progressed = True
        while progressed:
            progressed = False
            for index in range(len(self._stages) - 1, -1, -1):
                stage = self._stages[index]
                job = stage.job
                if job is None:
                    continue
                if not job.stage_done and job.stage_finish_time <= now + _TIME_EPSILON:
                    job.stage_done = True
                if not job.stage_done:
                    continue
                if index == len(self._stages) - 1:
                    finished.append(self._complete_job(job, now))
                    stage.job = None
                    progressed = True
                else:
                    next_stage = self._stages[index + 1]
                    if next_stage.is_free:
                        job.stage_done = False
                        job.stage_finish_time = now + job.stage_times[index + 1]
                        next_stage.job = job
                        next_stage.busy_time += job.stage_times[index + 1]
                        stage.job = None
                        progressed = True
            if self._try_start_next(now):
                progressed = True
        return finished

    def has_request(self, request_id: int) -> bool:
        """Whether ``request_id`` is currently waiting or running here."""
        if any(er.request_id == request_id for er in self._waiting):
            return True
        return any(
            stage.job is not None
            and stage.job.engine_request.request_id == request_id
            for stage in self._stages
        )

    def running_request_ids(self) -> list[int]:
        """Request ids currently occupying a pipeline stage."""
        return [
            stage.job.engine_request.request_id
            for stage in self._stages
            if stage.job is not None
        ]

    def cancel(self, request_id: int, now: float) -> str | None:
        """Abort a waiting or in-flight request without a completion record.

        The resilience layer's primitive for deadline cancellation and
        hedge-loser cleanup.  A running job's lease aborts cleanly (nothing
        commits, scratch frees) and the stage-busy time it will no longer
        spend is rolled back, so a cancelled run is billed only for the work
        actually performed.  The caller owns any terminal accounting record.

        Returns ``"waiting"`` / ``"running"`` for where the request was
        found, or ``None`` when it is not on this instance.
        """
        for engine_request in self._waiting:
            if engine_request.request_id == request_id:
                self._dequeue(engine_request)
                return "waiting"
        for stage in self._stages:
            job = stage.job
            if job is None or job.engine_request.request_id != request_id:
                continue
            if not job.stage_done:
                stage.busy_time -= max(job.stage_finish_time - now, 0.0)
            self.kv.finish_execution(job.lease, commit=False, now=now)
            stage.job = None
            # The caller advances the instance: the freed stage can admit
            # queued work immediately, and completions must flow through the
            # owner's observation hooks, not be dropped here.
            return "running"
        return None

    def discard_finished(self, request_id: int) -> FinishedRequest | None:
        """Drop and return the newest completion record for ``request_id``.

        Used when a hedge duplicate completes in the same event batch as the
        winner: the loser's record must not double-count the request.
        """
        for index in range(len(self._finished) - 1, -1, -1):
            if self._finished[index].request_id == request_id:
                return self._finished.pop(index)
        return None

    def crash(self, now: float) -> tuple[list[Request], int, int]:
        """Kill the instance: drop all queued and in-flight work immediately.

        Unlike a drain, nothing completes and nothing is flushed — the fault
        subsystem's replica-crash semantics.  In-flight partial compute is
        discarded (those requests must restart from scratch elsewhere) and
        the waiting queue empties; the owning fleet re-routes the evacuated
        requests.  Their leases abort as on :meth:`cancel` (nothing commits,
        pins and scratch blocks release), so the dead instance's KV
        accounting still balances.  Completion records of requests that
        finished *before* the crash are preserved.

        Returns ``(evacuated requests, in-flight count, lost work tokens)``
        where the evacuated list is ordered oldest-first (in-flight work in
        reverse stage order, then the waiting queue in arrival order) and
        lost work counts the in-flight requests' tokens whose partial
        forward passes died with the node.
        """
        evacuated: list[Request] = []
        lost_work = 0
        in_flight = 0
        for stage in reversed(self._stages):
            job = stage.job
            if job is None:
                continue
            evacuated.append(job.engine_request.request)
            lost_work += job.engine_request.num_tokens
            in_flight += 1
            self.kv.finish_execution(job.lease, commit=False, now=now)
            stage.job = None
        for engine_request in self._waiting:
            evacuated.append(engine_request.request)
            self.scheduler.on_remove(engine_request)
        self._waiting.clear()
        return evacuated, in_flight, lost_work

    def drain_until(self, limit: float = math.inf) -> list[FinishedRequest]:
        """Run the instance to completion (no new arrivals), up to ``limit`` seconds.

        Convenience used by unit tests and the scheduling-example benchmark.
        """
        finished: list[FinishedRequest] = []
        guard = 0
        while True:
            next_time = self.next_event_time()
            if next_time is None:
                if not self._waiting:
                    break
                raise SchedulingError("waiting requests exist but no event is pending")
            if next_time > limit:
                break
            finished.extend(self.advance_to(next_time))
            guard += 1
            if guard > 1_000_000:
                raise SchedulingError("drain_until exceeded the iteration guard")
        return finished

