"""Command-line interface for the PrefillOnly reproduction.

Subcommands map to the main things a user wants to do without writing code:

* ``prefillonly list``      — show the registered models, GPUs, setups, engines;
* ``prefillonly mil``       — print the Table 2 maximum-input-length matrix;
* ``prefillonly sweep``     — run a QPS sweep of one engine on one setup;
* ``prefillonly compare``   — compare every engine at one offered QPS;
* ``prefillonly workload``  — print a workload's Table 1 summary;
* ``prefillonly fleet``     — simulate a multi-replica fleet (routing,
  admission control, autoscaling, optional ``--tiers`` tiered prefix cache,
  optional ``--faults`` chaos schedule) and print the fleet report;
* ``prefillonly scenario``  — the scenario engine: ``run`` / ``replay`` a
  config-file scenario (multi-tenant mixes, bursty/diurnal/flash-crowd/
  closed-loop arrivals, trace recording), run a whole ``suite`` directory of
  configs (optionally across CPU cores), or list the ``arrivals``.  The
  cookbook in ``docs/SCENARIOS.md`` has one worked example per knob;
* ``prefillonly obs``       — run a scenario with recording force-enabled and
  ``export`` its spans / Chrome trace / Prometheus snapshot, or print the
  ``summary`` / per-tenant ``slo`` report (see ``docs/OBSERVABILITY.md``).

The top-level ``--log-level`` flag turns on structured stderr logging; every
record carries the scenario seed and shard id.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.analysis.mil import mil_table
from repro.analysis.reporting import (
    format_alerts_report,
    format_critical_path_report,
    format_fleet_report,
    format_run_diff_report,
    format_scenario_report,
    format_table,
)
from repro.analysis.sweep import compare_engines, paper_qps_points, base_throughput, qps_sweep
from repro.baselines.registry import ENGINE_ORDER, all_engine_specs, get_engine_spec
from repro.cluster import Fleet, QueueDepthAdmission, ReactiveAutoscaler
from repro.errors import (
    ConfigurationError,
    FaultScheduleError,
    ObsError,
    ReproError,
    ResilienceError,
    ScenarioSpecError,
)
from repro.faults import fault_schedule_from_dict
from repro.resilience import resilience_from_dict
from repro.hardware.cluster import get_hardware_setup, list_hardware_setups, HARDWARE_SETUPS
from repro.kvcache.tiers import PROMOTION_POLICIES, tier_config_from_dict
from repro.model.config import MODEL_REGISTRY, get_model
from repro.obs.analysis import (
    DEFAULT_ALERT_RULES,
    decompose_requests,
    diff_runs,
    evaluate_alerts,
    top_exemplars,
)
from repro.obs.exporters import (
    export_alerts,
    export_chrome_trace,
    export_prometheus,
    export_spans,
    format_obs_summary,
    format_slo_report,
    parse_spans,
)
from repro.obs.logging import LOG_LEVELS, configure as configure_logging
from repro.obs.logging import set_context as set_log_context
from repro.hardware.gpu import GPU_REGISTRY
from repro.simulation.arrival import (
    ARRIVAL_FACTORIES,
    BurstArrivalProcess,
    DiurnalArrivalProcess,
    PoissonArrivalProcess,
)
from repro.simulation.routing import ROUTER_FACTORIES, make_router
from repro.simulation.scenario import (
    load_scenario,
    replay_scenario,
    run_scenario,
    run_scenario_suite,
)
from repro.simulation.simulator import simulate_fleet
from repro.spec.core import check_overrides
from repro.spec.models import ObservabilitySpec
from repro.workloads.registry import get_workload, list_workloads


def _cmd_list(_args: argparse.Namespace) -> int:
    print(format_table([m.describe() for m in MODEL_REGISTRY.values()], title="Models"))
    print()
    print(format_table([g.describe() for g in GPU_REGISTRY.values()], title="GPUs"))
    print()
    print(format_table([s.describe() for s in HARDWARE_SETUPS.values()], title="Hardware setups"))
    print()
    print(format_table(
        [{"engine": spec.name, "description": spec.description} for spec in all_engine_specs()],
        title="Engines",
    ))
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    trace = get_workload(args.name)
    print(format_table([trace.summary()], title=f"Workload: {args.name}"))
    return 0


def _cmd_mil(args: argparse.Namespace) -> int:
    specs = [get_engine_spec(name) for name in (args.engines or ENGINE_ORDER)]
    setups = [get_hardware_setup(name) for name in (args.setups or list_hardware_setups())]
    workload_max = {
        "WL1-post-recommendation": 17_500,
        "WL2-credit-verification": 61_000,
    }
    rows = mil_table(specs, setups, get_model, workload_max_tokens=workload_max)
    print(format_table(rows, title="Maximum input length (Table 2)"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = get_engine_spec(args.engine)
    setup = get_hardware_setup(args.setup)
    trace = get_workload(args.workload, num_users=args.num_users)
    if args.qps:
        qps_values = args.qps
    else:
        base = base_throughput(spec, setup, trace)
        qps_values = paper_qps_points(base)
    points = qps_sweep(spec, setup, trace, qps_values)
    print(format_table(
        [point.as_dict() for point in points],
        title=f"{args.engine} on {args.setup} / {args.workload}",
    ))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    setup = get_hardware_setup(args.setup)
    trace = get_workload(args.workload, num_users=args.num_users)
    specs = [get_engine_spec(name) for name in ENGINE_ORDER]
    reference = get_engine_spec("prefillonly")
    base = base_throughput(reference, setup, trace)
    qps_values = args.qps or [base]
    results = compare_engines(specs, setup, trace, qps_values)
    rows = [point.as_dict() for points in results.values() for point in points]
    for name, points in results.items():
        if not points:
            rows.append({"engine": name, "hardware": setup.name, "workload": trace.name,
                         "qps": "-", "mean_latency_s": "infeasible"})
    print(format_table(rows, title=f"Engine comparison on {args.setup} / {args.workload}"))
    return 0


def _load_fault_schedule(path: str, *, default_replicas: int | None):
    """Load a fault schedule from a JSON file for the ``fleet`` subcommand.

    Accepts either the bare ``"faults"`` block or a wrapping object with a
    ``"faults"`` key (so a scenario config's block can be reused verbatim).
    """
    file = Path(path)
    if not file.exists():
        raise FaultScheduleError(f"fault schedule file not found: {path}")
    try:
        config = json.loads(file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FaultScheduleError(f"{path}: invalid JSON ({exc})") from None
    if isinstance(config, dict) and "faults" in config:
        config = config["faults"]
    return fault_schedule_from_dict(config, default_replicas=default_replicas)


def _load_resilience(path: str):
    """Load resilience policies from a JSON file for the ``fleet`` subcommand.

    Accepts either the bare ``"resilience"`` block or a wrapping object with
    a ``"resilience"`` key (so a scenario config's block can be reused
    verbatim).  An inert block (disabled, or no sub-policies) returns None —
    byte-identical to not passing the flag.
    """
    file = Path(path)
    if not file.exists():
        raise ResilienceError(f"resilience config file not found: {path}")
    try:
        config = json.loads(file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ResilienceError(f"{path}: invalid JSON ({exc})") from None
    if isinstance(config, dict) and "resilience" in config:
        config = config["resilience"]
    resilience = resilience_from_dict(config)
    return resilience if resilience.active else None


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.seed < 0:
        # numpy rejects negative seeds with a bare ValueError deep in an
        # arrival process; refuse them up front as a config error.
        raise ConfigurationError(f"--seed must be non-negative, got {args.seed}")
    if args.replicas is not None and args.replicas < 1:
        raise ConfigurationError(f"--replicas must be at least 1, got {args.replicas}")
    spec = get_engine_spec(args.engine)
    setup = get_hardware_setup(args.setup)
    trace = get_workload(args.workload, num_users=args.num_users)

    admission = None
    if args.max_queue_depth is not None:
        admission = QueueDepthAdmission(args.max_queue_depth)
    autoscaler = None
    if args.autoscale_max is not None:
        autoscaler = ReactiveAutoscaler(
            min_replicas=args.autoscale_min,
            max_replicas=args.autoscale_max,
            scale_up_rps_per_replica=args.scale_up_rps,
            window_seconds=args.autoscale_window,
            cooldown_seconds=args.autoscale_cooldown,
        )
    tier_config = None
    if args.tiers:
        # Route the flags through the same spec-layer parser a scenario
        # config's "kv_tiers" block uses, so flag validation is identical.
        tier_config = tier_config_from_dict({
            "enabled": True,
            "tiers": {"host": {"capacity_gib": args.tier_host_gib},
                      "cluster": {"capacity_gib": args.tier_cluster_gib}},
            "promotion": args.tier_promotion,
            "prefetch": not args.no_tier_prefetch,
        })
    fleet = Fleet.for_setup(
        spec, setup,
        max_input_length=trace.max_request_tokens,
        num_replicas=args.replicas,
        router=make_router(args.router, args.replicas or 1),
        admission=admission,
        autoscaler=autoscaler,
        name=f"{args.engine}x{args.replicas or 'auto'}",
        tier_config=tier_config,
        policies=(
            _load_resilience(args.resilience)
            if args.resilience is not None else None
        ),
    )
    faults = None
    if args.faults is not None:
        faults = _load_fault_schedule(args.faults, default_replicas=args.replicas)
    qps = args.qps if args.qps is not None else 8.0
    if args.arrival == "diurnal":
        arrivals = DiurnalArrivalProcess(mean_rate=qps, seed=args.seed)
    elif args.arrival == "poisson" or (args.arrival == "auto" and args.qps is not None):
        arrivals = PoissonArrivalProcess(rate=qps, seed=args.seed)
    else:
        arrivals = BurstArrivalProcess(seed=args.seed)
    requests = arrivals.assign(list(trace.requests))
    result = simulate_fleet(
        fleet, requests, faults=faults,
        shards=args.shards,
        shard_workers=args.shard_workers,
        shard_seed=args.seed,
    )
    if result.sharding is not None:
        info = result.sharding
        print(
            f"sharding: {info['shards']} shards, {info['mode']} mode "
            f"({info['executed']})"
        )
    print(format_fleet_report(result))
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    spec = load_scenario(args.config)
    if args.no_resilience and spec.resilience is not None:
        spec = dataclasses.replace(spec, resilience=None)
    result = run_scenario(spec, record=args.record)
    print(format_scenario_report(result))
    return 0


def _cmd_scenario_replay(args: argparse.Namespace) -> int:
    spec = load_scenario(args.config)
    result = replay_scenario(spec, args.trace)
    print(format_scenario_report(result))
    return 0


def _cmd_scenario_suite(args: argparse.Namespace) -> int:
    results = run_scenario_suite(args.dir, max_workers=args.workers)
    rows = []
    for result in results:
        summary = result.result.summary
        rows.append({
            "scenario": result.spec.name,
            "tenants": len(result.spec.tenants),
            "finished": summary.num_requests,
            "rejected": summary.num_rejected,
            "mean_latency_s": round(summary.mean_latency, 3),
            "p99_latency_s": round(summary.p99_latency, 3),
            "throughput_rps": round(summary.throughput_rps, 3),
            "events": result.result.num_events,
        })
    print(format_table(rows, title=f"Scenario suite: {args.dir}"))
    return 0


def _cmd_spec(args: argparse.Namespace) -> int:
    from repro.spec.docgen import model_summary_rows, model_table
    from repro.spec.models import DOCUMENTED_MODELS

    if args.model is None:
        print(format_table(model_summary_rows(), title="Spec models (docs/SPEC.md)"))
        return 0
    by_name = {cls.__name__: cls for cls in DOCUMENTED_MODELS}
    cls = by_name[args.model]
    print(f"{cls.__name__} — {cls.__spec__.title}")
    print()
    print(model_table(cls))
    return 0


#: ``prefillonly obs export --format`` choices -> exporter functions.
_OBS_EXPORTERS = {
    "spans": export_spans,
    "chrome": export_chrome_trace,
    "prometheus": export_prometheus,
}


def _sample_interval(args: argparse.Namespace) -> float | None:
    """``--sample-interval``, checked like the config block's own
    ``observability.sample_interval_s`` (a zero, negative, non-finite or tiny
    interval would never let the sampler finish).  None on the subcommands
    that print no samples and so have no such flag."""
    interval = getattr(args, "sample_interval", None)
    if interval is not None:
        check_overrides(ObservabilitySpec, {"sample_interval_s": interval},
                        path="observability", error=ScenarioSpecError)
    return interval


def _check_top(args: argparse.Namespace) -> None:
    if args.top < 0:
        raise ConfigurationError(f"--top must be non-negative, got {args.top}")


def _obs_data(args: argparse.Namespace):
    """Run the scenario with recording force-enabled and return its ObsData.

    The config's own ``"observability"`` block (if any) supplies the
    defaults; ``enabled`` is overridden to true so the ``obs`` subcommands
    work on any scenario config, and ``--sample-interval`` overrides the
    block's interval.  Forcing the recorder on never changes the simulation —
    the identity tests pin that.
    """
    interval = _sample_interval(args)
    spec = load_scenario(args.config)
    obs_config = spec.observability or ObservabilitySpec()
    updates: dict = {"enabled": True}
    if interval is not None:
        updates["sample_interval_s"] = interval
    spec = dataclasses.replace(
        spec, observability=dataclasses.replace(obs_config, **updates)
    )
    set_log_context(seed=spec.seed)
    return run_scenario(spec).result.obs


def _cmd_obs_export(args: argparse.Namespace) -> int:
    text = _OBS_EXPORTERS[args.format](_obs_data(args))
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.format} export to {args.out}")
    return 0


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    print(format_obs_summary(_obs_data(args)))
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    print(format_slo_report(_obs_data(args)))
    return 0


def _read_spans_text(path: str) -> str:
    """Read a spans document from a file, ``-`` (stdin), or a ``.gz`` file."""
    try:
        if path == "-":
            return sys.stdin.read()
        if path.endswith(".gz"):
            import gzip

            with gzip.open(path, "rt", encoding="utf-8") as handle:
                return handle.read()
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ObsError(f"cannot read spans file {path!r} ({exc})") from None


def _obs_input(args: argparse.Namespace):
    """The recording to analyse: a ``--spans`` file, or a fresh run."""
    if getattr(args, "spans", None):
        return parse_spans(_read_spans_text(args.spans))
    if args.config is None:
        raise ObsError("either --config (run the scenario) or --spans "
                       "(analyse a recording) is required")
    return _obs_data(args)


def _cmd_obs_critical_path(args: argparse.Namespace) -> int:
    _check_top(args)
    report = decompose_requests(_obs_input(args))
    print(format_critical_path_report(report, top=args.top))
    return 0


def _cmd_obs_exemplars(args: argparse.Namespace) -> int:
    _check_top(args)
    report = decompose_requests(_obs_input(args))
    rows = [
        {
            "request": exemplar.request_id,
            "tenant": exemplar.tenant or "-",
            "replica": exemplar.replica,
            "e2e_s": round(exemplar.e2e_s, 4),
            "retries": exemplar.num_retries,
            "hedges": exemplar.num_hedges,
            **{phase: round(value, 4)
               for phase, value in exemplar.phases.items()},
        }
        for exemplar in top_exemplars(report, args.top)
    ]
    if not rows:
        print("no finished requests to rank")
        return 0
    print(format_table(rows, title=f"Top {len(rows)} slowest exemplars"))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    baseline = parse_spans(_read_spans_text(args.baseline))
    candidate = parse_spans(_read_spans_text(args.candidate))
    diff = diff_runs(baseline, candidate)
    print(format_run_diff_report(diff))
    if args.fail_on_delta and not diff.is_zero:
        return 1
    return 0


def _cmd_obs_alerts(args: argparse.Namespace) -> int:
    spec = load_scenario(args.config)
    slos = {
        tenant.name: tenant.slo_latency_s for tenant in spec.tenants
        if tenant.slo_latency_s is not None
    }
    rules = DEFAULT_ALERT_RULES
    if spec.observability is not None and spec.observability.alerts:
        rules = spec.observability.alerts
    interval = _sample_interval(args)
    if interval is None and spec.observability is not None:
        interval = spec.observability.sample_interval_s
    report = evaluate_alerts(_obs_input(args), rules, slos=slos,
                             interval_s=interval)
    print(format_alerts_report(report))
    if args.out is not None:
        Path(args.out).write_text(export_alerts(report), encoding="utf-8")
        print(f"wrote repro-alerts/v1 export to {args.out}")
    return 0


def _cmd_scenario_arrivals(_args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(ARRIVAL_FACTORIES):
        factory = ARRIVAL_FACTORIES[name]
        params = ", ".join(
            f.name for f in dataclasses.fields(factory) if f.name != "seed"
        )
        doc = (factory.__doc__ or "").strip().splitlines()[0]
        rows.append({"arrival": name, "parameters": params, "description": doc})
    print(format_table(rows, title="Arrival processes"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefillonly",
        description="PrefillOnly (SOSP 2025) reproduction on a simulated GPU substrate",
    )
    parser.add_argument("--log-level", default=None, choices=LOG_LEVELS,
                        help="enable structured stderr logging at this level "
                             "(records carry the scenario seed and shard id)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list models, GPUs, setups, engines")
    list_parser.set_defaults(func=_cmd_list)

    workload_parser = subparsers.add_parser("workload", help="summarise a workload (Table 1)")
    workload_parser.add_argument("name", choices=list_workloads())
    workload_parser.set_defaults(func=_cmd_workload)

    mil_parser = subparsers.add_parser("mil", help="maximum input length matrix (Table 2)")
    mil_parser.add_argument("--engines", nargs="*", choices=ENGINE_ORDER)
    mil_parser.add_argument("--setups", nargs="*", choices=list_hardware_setups())
    mil_parser.set_defaults(func=_cmd_mil)

    sweep_parser = subparsers.add_parser("sweep", help="QPS sweep of one engine")
    sweep_parser.add_argument("--engine", default="prefillonly", choices=ENGINE_ORDER)
    sweep_parser.add_argument("--setup", default="h100", choices=list_hardware_setups())
    sweep_parser.add_argument("--workload", default="post-recommendation", choices=list_workloads())
    sweep_parser.add_argument("--num-users", type=int, default=8)
    sweep_parser.add_argument("--qps", nargs="*", type=float)
    sweep_parser.set_defaults(func=_cmd_sweep)

    compare_parser = subparsers.add_parser("compare", help="compare every engine at one QPS")
    compare_parser.add_argument("--setup", default="h100", choices=list_hardware_setups())
    compare_parser.add_argument("--workload", default="post-recommendation",
                                choices=list_workloads())
    compare_parser.add_argument("--num-users", type=int, default=8)
    compare_parser.add_argument("--qps", nargs="*", type=float)
    compare_parser.set_defaults(func=_cmd_compare)

    fleet_parser = subparsers.add_parser(
        "fleet", help="simulate a multi-replica fleet with routing / admission / autoscaling"
    )
    fleet_parser.add_argument("--engine", default="prefillonly", choices=ENGINE_ORDER)
    fleet_parser.add_argument("--setup", default="h100", choices=list_hardware_setups())
    fleet_parser.add_argument("--workload", default="post-recommendation",
                              choices=list_workloads())
    fleet_parser.add_argument("--num-users", type=int, default=8)
    fleet_parser.add_argument("--replicas", type=int, default=None,
                              help="replica count (default: one per GPU of the setup)")
    fleet_parser.add_argument("--router", default="user-id",
                              choices=sorted(ROUTER_FACTORIES))
    fleet_parser.add_argument("--qps", type=float, default=None,
                              help="Poisson arrival rate (default: burst arrivals)")
    fleet_parser.add_argument("--arrival", default="auto",
                              choices=["auto", "burst", "poisson", "diurnal"],
                              help="arrival process (auto: poisson when --qps is "
                                   "given, else burst; diurnal uses --qps as the "
                                   "mean rate)")
    fleet_parser.add_argument("--max-queue-depth", type=int, default=None,
                              help="enable admission control at this per-replica depth")
    fleet_parser.add_argument("--autoscale-min", type=int, default=1)
    fleet_parser.add_argument("--autoscale-max", type=int, default=None,
                              help="enable autoscaling up to this replica count")
    fleet_parser.add_argument("--scale-up-rps", type=float, default=2.0,
                              help="per-replica arrival rate that triggers scale-up")
    fleet_parser.add_argument("--autoscale-window", type=float, default=30.0)
    fleet_parser.add_argument("--autoscale-cooldown", type=float, default=60.0)
    fleet_parser.add_argument("--tiers", action="store_true",
                              help="enable the tiered prefix cache "
                                   "(GPU -> host -> cluster; see docs/KV_TIERS.md)")
    fleet_parser.add_argument("--tier-host-gib", type=float, default=4.0,
                              help="host (L2) tier budget per replica, GiB")
    fleet_parser.add_argument("--tier-cluster-gib", type=float, default=16.0,
                              help="fleet-shared cluster (L3) tier budget, GiB")
    fleet_parser.add_argument("--tier-promotion", default="on-nth-hit",
                              choices=sorted(PROMOTION_POLICIES),
                              help="when a lower-tier hit is promoted into GPU memory")
    fleet_parser.add_argument("--no-tier-prefetch", action="store_true",
                              help="disable router-hint prefetch into the routed replica")
    fleet_parser.add_argument("--resilience", default=None, metavar="CONFIG",
                              help="JSON file with resilience policies "
                                   "(a \"resilience\" block; see "
                                   "docs/RESILIENCE.md)")
    fleet_parser.add_argument("--faults", default=None, metavar="SCHEDULE",
                              help="inject a chaos schedule from this JSON file "
                                   "(a \"faults\" block; see docs/FAULTS.md)")
    fleet_parser.add_argument("--seed", type=int, default=0)
    fleet_parser.add_argument("--shards", type=int, default=1,
                              help="partition replicas across this many shards "
                                   "(results are byte-identical on any count; "
                                   "see docs/SHARDING.md)")
    fleet_parser.add_argument("--shard-workers", type=int, default=None,
                              help="worker processes for decoupled sharded runs "
                                   "(default: one per shard up to the CPU count; "
                                   "1 keeps the shard engines in-process)")
    fleet_parser.set_defaults(func=_cmd_fleet)

    scenario_parser = subparsers.add_parser(
        "scenario", help="run / replay config-file scenarios (see docs/SCENARIOS.md)"
    )
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command", required=True)

    scenario_run = scenario_sub.add_parser(
        "run", help="run a scenario from a JSON config file"
    )
    scenario_run.add_argument("--config", required=True,
                              help="path to the scenario JSON config")
    scenario_run.add_argument("--record", default=None, metavar="TRACE",
                              help="record the request stream to this JSONL trace file")
    scenario_run.add_argument("--no-resilience", action="store_true",
                              help="ignore the config's \"resilience\" block "
                                   "(for policy-on/off comparisons)")
    scenario_run.set_defaults(func=_cmd_scenario_run)

    scenario_replay = scenario_sub.add_parser(
        "replay", help="replay a recorded trace through a scenario's fleet"
    )
    scenario_replay.add_argument("--config", required=True,
                                 help="path to the scenario JSON config")
    scenario_replay.add_argument("--trace", required=True,
                                 help="path to a recorded repro-trace/v1 JSONL file")
    scenario_replay.set_defaults(func=_cmd_scenario_replay)

    scenario_suite = scenario_sub.add_parser(
        "suite", help="run every scenario config in a directory"
    )
    scenario_suite.add_argument("--dir", required=True,
                                help="directory of scenario JSON configs")
    scenario_suite.add_argument("--workers", type=int, default=None,
                                help="fan scenarios across this many processes "
                                     "(default: serial; results are identical)")
    scenario_suite.set_defaults(func=_cmd_scenario_suite)

    scenario_arrivals = scenario_sub.add_parser(
        "arrivals", help="list the registered arrival processes"
    )
    scenario_arrivals.set_defaults(func=_cmd_scenario_arrivals)

    obs_parser = subparsers.add_parser(
        "obs", help="export / summarise a scenario run's spans & telemetry "
                    "(see docs/OBSERVABILITY.md)"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    def _add_obs_common(sub: argparse.ArgumentParser, *,
                        config_required: bool = True) -> None:
        sub.add_argument("--config", required=config_required,
                         help="path to the scenario JSON config (recording is "
                              "force-enabled; the run itself is unchanged)")

    def _add_sample_interval(sub: argparse.ArgumentParser) -> None:
        # Only on the subcommands whose output reads the samples.
        sub.add_argument("--sample-interval", type=float, default=None,
                         help="override the metric sample interval "
                              "(simulated seconds)")

    def _add_spans_input(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--spans", default=None, metavar="FILE",
                         help="analyse a recorded repro-spans/v1 file instead "
                              "of running the scenario ('-' reads stdin; "
                              ".gz files are decompressed)")

    obs_export = obs_sub.add_parser(
        "export", help="run the scenario and export its recording"
    )
    _add_obs_common(obs_export)
    _add_sample_interval(obs_export)
    obs_export.add_argument("--format", required=True,
                            choices=sorted(_OBS_EXPORTERS),
                            help="spans: repro-spans/v1 JSONL; chrome: "
                                 "trace-event JSON (Perfetto-loadable); "
                                 "prometheus: text exposition snapshot")
    obs_export.add_argument("--out", default=None, metavar="FILE",
                            help="output file (default: stdout)")
    obs_export.set_defaults(func=_cmd_obs_export)

    obs_summary = obs_sub.add_parser(
        "summary", help="print a human-readable overview of the recording"
    )
    _add_obs_common(obs_summary)
    _add_sample_interval(obs_summary)
    obs_summary.set_defaults(func=_cmd_obs_summary)

    obs_slo = obs_sub.add_parser(
        "slo", help="print per-tenant SLO attainment from the recording"
    )
    _add_obs_common(obs_slo)
    obs_slo.set_defaults(func=_cmd_obs_slo)

    obs_critical = obs_sub.add_parser(
        "critical-path",
        help="decompose every request's latency into phases (queue, retry "
             "wait, tier fetch, prefill, lost service) that sum to its "
             "end-to-end latency",
    )
    _add_obs_common(obs_critical, config_required=False)
    _add_spans_input(obs_critical)
    obs_critical.add_argument("--top", type=int, default=5,
                              help="slowest exemplar traces to include")
    obs_critical.set_defaults(func=_cmd_obs_critical_path)

    obs_exemplars = obs_sub.add_parser(
        "exemplars",
        help="print only the top-K slowest requests with their phase "
             "breakdowns",
    )
    _add_obs_common(obs_exemplars, config_required=False)
    _add_spans_input(obs_exemplars)
    obs_exemplars.add_argument("--top", type=int, default=5,
                               help="slowest exemplar traces to print")
    obs_exemplars.set_defaults(func=_cmd_obs_exemplars)

    obs_diff = obs_sub.add_parser(
        "diff",
        help="attribute the delta between two recordings to phases, "
             "replicas, and span kinds",
    )
    obs_diff.add_argument("baseline",
                          help="baseline repro-spans/v1 file "
                               "('-' reads stdin; .gz files are decompressed)")
    obs_diff.add_argument("candidate", help="candidate repro-spans/v1 file")
    obs_diff.add_argument("--fail-on-delta", action="store_true",
                          help="exit 1 when any tracked quantity differs "
                               "(CI guard for same-seed reproducibility)")
    obs_diff.set_defaults(func=_cmd_obs_diff)

    obs_alerts = obs_sub.add_parser(
        "alerts",
        help="evaluate multi-window burn-rate alert rules against the "
             "tenants' latency SLOs, in simulated time",
    )
    _add_obs_common(obs_alerts)
    _add_sample_interval(obs_alerts)
    _add_spans_input(obs_alerts)
    obs_alerts.add_argument("--out", default=None, metavar="FILE",
                            help="also write the repro-alerts/v1 JSONL export")
    obs_alerts.set_defaults(func=_cmd_obs_alerts)

    from repro.spec.models import DOCUMENTED_MODELS

    spec_parser = subparsers.add_parser(
        "spec", help="show the config spec models and their field tables (docs/SPEC.md)"
    )
    spec_parser.add_argument("--model", default=None,
                             choices=[cls.__name__ for cls in DOCUMENTED_MODELS],
                             help="print one model's field table instead of the overview")
    spec_parser.set_defaults(func=_cmd_spec)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``prefillonly`` console script.

    Every config/validation failure in the library raises a
    :class:`~repro.errors.ReproError` (spec-layer errors carry the dotted
    JSON path of the offending value); the CLI turns them into a one-line
    stderr message and exit code 2 instead of a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        configure_logging(args.log_level)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"prefillonly: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
