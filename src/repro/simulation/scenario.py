"""The workload scenario engine: config-driven multi-tenant simulations.

A *scenario* bundles everything one simulated serving deployment needs —
which tenants send traffic (workload + parameters + arrival process + SLO),
what serves it (engine, hardware setup, replica count, router, admission
control, autoscaling) — into one declarative :class:`ScenarioSpec` that can be
loaded from a JSON file, run, recorded to a ``repro-trace/v1`` JSONL file, and
replayed bit-for-bit.  The ``prefillonly scenario`` CLI subcommand is a thin
wrapper around this module; ``docs/SCENARIOS.md`` is the cookbook of worked
examples.

Config file shape (JSON)::

    {
      "name": "bursty-mix",
      "engine": "prefillonly",          // registered engine spec
      "setup": "h100",                  // registered hardware setup
      "replicas": 4,                    // omit for one replica per GPU
      "router": "user-id",              // user-id | least-loaded | prefix-affinity
      "max_queue_depth": 32,            // optional admission control
      "autoscale": {                    // optional reactive autoscaler
        "min_replicas": 1, "max_replicas": 8,
        "scale_up_rps_per_replica": 2.0,
        "window_seconds": 30.0, "cooldown_seconds": 60.0
      },
      "kv_tiers": {                     // optional tiered prefix cache
        "enabled": true,                // (see docs/KV_TIERS.md)
        "tiers": {"host": {"capacity_gib": 4.0},
                   "cluster": {"capacity_gib": 16.0}}
      },
      "faults": {                       // optional chaos schedule
        "enabled": true,                // (see docs/FAULTS.md)
        "events": [{"kind": "crash", "replica": 0,
                     "at": 60.0, "recover_at": 120.0}]
      },
      "seed": 0,
      "tenants": [
        {
          "name": "social",
          "workload": "post-recommendation",
          "workload_params": {"num_users": 6, "posts_per_user": 10},
          "weight": 1.0,
          "slo_latency_s": 2.0,
          "arrival": "mmpp",
          "arrival_params": {"base_rate": 2.0, "burst_rate": 12.0}
        }
      ]
    }

Determinism: every random choice is owned by an explicit seed — the workload
generators' (``workload_params.seed``, defaulting to the scenario seed), the
arrival processes' (``arrival_params.seed``, defaulting to the scenario seed
plus the tenant index plus one, so the default streams never collide), and
the mixer's subsampling (salted from the scenario seed) — so the same config
always produces the same request stream, and a recorded trace replays to the
exact same metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.baselines.registry import get_engine_spec
from repro.cluster import Fleet
from repro.errors import ScenarioError
from repro.faults import FaultSchedule, fault_schedule_from_model
from repro.hardware.cluster import get_hardware_setup
from repro.obs.logging import get_logger, set_context
from repro.obs.recorder import TraceRecorder
from repro.perf.runner import ParallelRunner
from repro.simulation.arrival import arrival_factory
from repro.spec.core import from_dict
from repro.spec.models import (
    AutoscaleSpec,
    KVTiersSpec,
    ObservabilitySpec,
    ResilienceSpec,
    ScenarioModel,
    TenantModel,
)
from repro.simulation.metrics import LatencySummary, summarize_finished
from repro.simulation.routing import make_router
from repro.simulation.simulator import FleetSimulationResult, simulate_fleet
from repro.workloads.mixer import MixedTrace, TenantSpec, mix_tenants
from repro.workloads.registry import workload_factory
from repro.workloads.trace import Request
from repro.workloads.tracefile import load_trace, save_trace

__all__ = [
    "ScenarioSpec",
    "TenantReport",
    "ScenarioResult",
    "scenario_from_dict",
    "load_scenario",
    "build_mix",
    "run_scenario",
    "replay_scenario",
    "discover_scenarios",
    "run_scenario_suite",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully described serving scenario (see the module docstring)."""

    name: str
    tenants: tuple[TenantSpec, ...]
    engine: str = "prefillonly"
    setup: str = "h100"
    replicas: int | None = None
    router: str = "user-id"
    max_queue_depth: int | None = None
    autoscale: AutoscaleSpec | None = None
    seed: int = 0
    max_input_length: int | None = None
    #: Tiered prefix-cache configuration, parsed from the ``"kv_tiers"``
    #: config block (None or ``enabled: false`` runs without tiering, with
    #: results byte-identical to a config that omits the block entirely).
    kv_tiers: KVTiersSpec | None = None
    #: Fault schedule, parsed from the ``"faults"`` config block (see
    #: ``docs/FAULTS.md``).  None or ``enabled: false`` injects nothing, with
    #: results byte-identical to a config that omits the block entirely.
    faults: FaultSchedule | None = None
    #: Shard count (see ``docs/SHARDING.md``).  A decoupled fleet runs on
    #: the sharded engine; any other fleet runs the ordinary fleet loop and
    #: the count only labels ``result.sharding``.  Any value produces
    #: byte-identical results (pinned by the differential suite).
    shards: int = 1
    #: Observability configuration, parsed from the ``"observability"``
    #: config block (see ``docs/OBSERVABILITY.md``).  None or ``enabled:
    #: false`` records nothing, with results byte-identical to a config that
    #: omits the block entirely.
    observability: ObservabilitySpec | None = None
    #: Resilience policies, parsed from the ``"resilience"`` config block
    #: (see ``docs/RESILIENCE.md``).  None, ``enabled: false``, or a block
    #: with no sub-policies changes nothing, with results byte-identical to a
    #: config that omits the block entirely.
    resilience: ResilienceSpec | None = None


def _tenant_from_model(model: TenantModel, *, index: int,
                       scenario_seed: int) -> TenantSpec:
    """Build tenant ``index``'s generator and arrival process, each checked
    by its own declaration at the tenant's path."""
    path = f"tenants[{index}]"
    generator = from_dict(
        workload_factory(model.workload),
        {"seed": scenario_seed, **model.workload_params},
        path=f"{path}.workload_params",
    )
    # Offset by index + 1 so no tenant's arrival stream shares a seed with
    # another tenant's, nor with the workload generators' default above.
    arrival = from_dict(
        arrival_factory(model.arrival),
        {"seed": scenario_seed + index + 1, **model.arrival_params},
        path=f"{path}.arrival_params",
    )
    return TenantSpec(
        name=model.name,
        generator=generator,
        arrival=arrival,
        weight=model.weight,
        slo_latency_s=model.slo_latency_s,
    )


def scenario_from_dict(config: dict) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a plain config dict.

    The config parses into a :class:`~repro.spec.models.ScenarioModel`
    (types, defaults, ranges, unknown-key rejection with JSON paths,
    ``"version"`` handling); then each tenant's workload generator and
    arrival process are built, with their seeds defaulted, and the
    ``faults`` model is compiled into its schedule.  Every other nested
    block (``autoscale``, ``kv_tiers``, ``observability``, ``resilience``)
    is its own runtime config and is carried over as parsed; an inactive
    ``resilience`` block is dropped.

    Raises:
        ScenarioError: on unknown or missing keys (typos fail loudly rather
            than silently falling back to defaults).  Spec-layer failures are
            :class:`~repro.errors.ScenarioSpecError`, a subclass.
        WorkloadSpecError: when a tenant's ``workload_params`` or
            ``arrival_params`` fail the generator's or arrival process's
            declaration, at ``tenants[i].workload_params.<key>`` or
            ``tenants[i].arrival_params.<key>``.
        UnknownNameError: for an unregistered workload
            (:class:`~repro.errors.UnknownWorkloadError`) or arrival process.
    """
    model = from_dict(ScenarioModel, config)
    tenants = tuple(
        _tenant_from_model(entry, index=index, scenario_seed=model.seed)
        for index, entry in enumerate(model.tenants)
    )
    faults = None
    if model.faults is not None:
        faults = fault_schedule_from_model(
            model.faults, default_replicas=model.replicas
        )
    resilience = model.resilience
    if resilience is not None and not resilience.active:
        resilience = None
    return ScenarioSpec(
        name=model.name,
        tenants=tenants,
        engine=model.engine,
        setup=model.setup,
        replicas=model.replicas,
        router=model.router,
        max_queue_depth=model.max_queue_depth,
        autoscale=model.autoscale,
        seed=model.seed,
        max_input_length=model.max_input_length,
        kv_tiers=model.kv_tiers,
        faults=faults,
        shards=model.shards,
        observability=model.observability,
        resilience=resilience,
    )


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load a scenario config from a JSON file."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario config not found: {path}")
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(config, dict):
        raise ScenarioError(f"{path}: scenario config must be a JSON object")
    return scenario_from_dict(config)


@dataclass(frozen=True)
class TenantReport:
    """Per-tenant slice of one scenario run."""

    name: str
    summary: LatencySummary
    slo_latency_s: float | None = None
    slo_attainment: float | None = None
    #: Crash-evacuated requests of this tenant that were re-routed; None on
    #: fault-free runs (the report column only appears under chaos).
    retried: int | None = None

    def as_dict(self) -> dict:
        """Row for the per-tenant report table."""
        row = {
            "tenant": self.name,
            "requests": self.summary.num_requests,
            "rejected": self.summary.num_rejected,
            "mean_latency_s": round(self.summary.mean_latency, 3),
            "p99_latency_s": round(self.summary.p99_latency, 3),
            "throughput_rps": round(self.summary.throughput_rps, 3),
            "slo_s": self.slo_latency_s if self.slo_latency_s is not None else "-",
            "slo_attainment": (
                round(self.slo_attainment, 3) if self.slo_attainment is not None else "-"
            ),
        }
        if self.retried is not None:
            row["retried"] = self.retried
        return row


@dataclass
class ScenarioResult:
    """Everything a scenario run produces.

    Attributes:
        spec: The scenario that ran.
        result: The fleet-level simulation result.
        tenants: Per-tenant reports, in the spec's tenant order.
        trace_path: Where the request stream was recorded, if it was.
        fleet: The live :class:`~repro.cluster.Fleet`, only when the run was
            asked to ``keep_fleet`` (the KV-residency invariant checks read
            it); None by default so suite results stay cheaply picklable
            across worker processes.
    """

    spec: ScenarioSpec
    result: FleetSimulationResult
    tenants: list[TenantReport] = field(default_factory=list)
    trace_path: Path | None = None
    fleet: Fleet | None = None


def build_mix(spec: ScenarioSpec) -> MixedTrace:
    """Generate the scenario's merged multi-tenant request stream."""
    return mix_tenants(spec.tenants, name=spec.name, seed=spec.seed)


def _build_fleet(spec: ScenarioSpec, max_input_length: int) -> Fleet:
    recorder = None
    if spec.observability is not None and spec.observability.enabled:
        recorder = TraceRecorder(
            spec.observability,
            tenant_slos={
                tenant.name: tenant.slo_latency_s
                for tenant in spec.tenants
                if tenant.slo_latency_s is not None
            },
        )
    return Fleet.for_setup(
        get_engine_spec(spec.engine), get_hardware_setup(spec.setup),
        max_input_length=max_input_length,
        num_replicas=spec.replicas,
        router=make_router(spec.router, spec.replicas or 1),
        max_queue_depth=spec.max_queue_depth,
        autoscale=spec.autoscale,
        name=spec.name,
        tier_config=spec.kv_tiers,
        recorder=recorder,
        policies=spec.resilience,
    )


def _tenant_reports(spec: ScenarioSpec, requests: list[Request],
                    result: FleetSimulationResult,
                    retried_ids: list[int] | None = None) -> list[TenantReport]:
    """Slice the fleet result per tenant in one pass over the records.

    Args:
        retried_ids: Request ids the fleet re-routed after crashes (one entry
            per retry).  None — the fault-free default — leaves the tenants'
            ``retried`` fields unset so existing report rows are unchanged.
    """
    tenant_of = {
        request.request_id: request.metadata.get("tenant") for request in requests
    }
    retried_by_tenant: dict[str, int] | None = None
    if retried_ids is not None:
        retried_by_tenant = {}
        for request_id in retried_ids:
            tenant = tenant_of.get(request_id)
            if tenant is not None:
                retried_by_tenant[tenant] = retried_by_tenant.get(tenant, 0) + 1
    finished: dict[str, list] = {tenant.name: [] for tenant in spec.tenants}
    rejected: dict[str, list] = {tenant.name: [] for tenant in spec.tenants}
    for record in result.finished:
        tenant = tenant_of.get(record.request_id)
        if tenant in finished:
            finished[tenant].append(record)
    for record in result.rejected:
        tenant = tenant_of.get(record.request_id)
        if tenant in rejected:
            rejected[tenant].append(record)
    reports = []
    for tenant in spec.tenants:
        summary = summarize_finished(finished[tenant.name], rejected[tenant.name])
        attainment = None
        if tenant.slo_latency_s is not None and finished[tenant.name]:
            within = sum(
                1 for record in finished[tenant.name]
                if record.latency <= tenant.slo_latency_s
            )
            attainment = within / len(finished[tenant.name])
        reports.append(TenantReport(
            name=tenant.name,
            summary=summary,
            slo_latency_s=tenant.slo_latency_s,
            slo_attainment=attainment,
            retried=(
                retried_by_tenant.get(tenant.name, 0)
                if retried_by_tenant is not None else None
            ),
        ))
    return reports


def run_scenario(spec: ScenarioSpec, *, record: str | Path | None = None,
                 requests: list[Request] | None = None,
                 keep_fleet: bool = False) -> ScenarioResult:
    """Run a scenario end to end.

    Args:
        spec: The scenario to run.
        record: Optional path; when given, the generated request stream (with
            its arrival times) is saved as a ``repro-trace/v1`` JSONL file
            before the simulation runs.
        requests: Pre-built request stream (used by :func:`replay_scenario`);
            skips workload generation and arrival assignment entirely.
        keep_fleet: Attach the simulated fleet to the result so callers (the
            invariant checks) can inspect end-of-run KV residency; off by
            default because a fleet does not pickle across suite workers.
            A kept fleet runs unsharded (the fleet loop on the fleet object
            itself), with byte-identical results and no ``result.sharding``.
    """
    set_context(seed=spec.seed)
    logger = get_logger("scenario")
    if requests is None:
        requests = build_mix(spec).requests
    if not requests:
        raise ScenarioError(f"scenario {spec.name!r} produced no requests")
    logger.info("running scenario %r: %d requests, %d replicas, %d shard(s)",
                spec.name, len(requests), spec.replicas or 0, spec.shards)
    trace_path = None
    if record is not None:
        trace_path = save_trace(
            record, requests, name=spec.name, seed=spec.seed,
            description={"tenants": [tenant.name for tenant in spec.tenants]},
        )
    max_input_length = spec.max_input_length
    if max_input_length is None:
        max_input_length = max(request.num_tokens for request in requests)
    fleet = _build_fleet(spec, max_input_length)
    chaos = (spec.faults is not None and spec.faults.active) or (
        spec.resilience is not None
    )
    result = simulate_fleet(
        fleet, requests, faults=spec.faults,
        # `keep_fleet` callers (the invariant checks) need the simulated
        # fleet object, which the decoupled shard engines never touch.
        shards=1 if keep_fleet else spec.shards,
        # Scenario runs keep the shard engines in-process: the suite runner
        # already parallelizes across scenarios.
        shard_workers=1,
        shard_seed=spec.seed,
    )
    logger.info("scenario %r finished: %d completed, %d rejected, %d events",
                spec.name, result.summary.num_requests,
                result.summary.num_rejected, result.num_events)
    return ScenarioResult(
        spec=spec,
        result=result,
        tenants=_tenant_reports(
            spec, requests, result,
            retried_ids=fleet.retried_request_ids if chaos else None,
        ),
        trace_path=trace_path,
        fleet=fleet if keep_fleet else None,
    )


def discover_scenarios(directory: str | Path) -> list[Path]:
    """The scenario config files of a suite directory, in sorted order.

    Raises:
        ScenarioError: when the directory does not exist or holds no configs.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ScenarioError(f"scenario suite directory not found: {directory}")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise ScenarioError(f"no scenario configs (*.json) under {directory}")
    return paths


def _suite_task(path: str) -> ScenarioResult:
    """Load and run one scenario config (module-level for the parallel runner)."""
    return run_scenario(load_scenario(path))


def run_scenario_suite(scenarios: str | Path | list[str | Path], *,
                       runner: ParallelRunner | None = None) -> list[ScenarioResult]:
    """Run a whole suite of scenario configs, optionally across processes.

    Args:
        scenarios: A directory of ``*.json`` configs (run in sorted order) or
            an explicit list of config paths (run in the given order).
        runner: Optional parallel fan-out (None runs serially in-process) —
            each scenario is an independent simulation, and each worker
            re-derives the request stream from the config's explicit seeds,
            so parallel results are byte-identical to a serial run.

    Returns:
        One :class:`ScenarioResult` per config, in config order.
    """
    if isinstance(scenarios, (str, Path)):
        paths = discover_scenarios(scenarios)
    else:
        paths = [Path(path) for path in scenarios]
        if not paths:
            raise ScenarioError("run_scenario_suite needs at least one scenario")
    runner = runner or ParallelRunner(max_workers=1)
    return runner.map(_suite_task, [str(path) for path in paths])


def replay_scenario(spec: ScenarioSpec, trace_path: str | Path) -> ScenarioResult:
    """Replay a recorded trace through the scenario's serving configuration.

    The trace supplies the exact request stream (ids, token segments, arrival
    times); the spec supplies the fleet.  Replaying a trace recorded from the
    same spec reproduces the original run's metrics exactly.
    """
    _, requests = load_trace(trace_path)
    return run_scenario(spec, requests=requests)
