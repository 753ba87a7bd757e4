"""Differential identity tests: sharded runs are byte-identical to unsharded.

The sharded engine's contract (``docs/SHARDING.md``) is that the shard count
is an *execution* detail, never an *observable* one: for any scenario — tiered
caches, autoscaling, admission control, chaos schedules, every router — the
full :func:`~repro.simulation.invariants.scenario_fingerprint` (unrounded
floats, per-request records, fleet summaries) is bit-equal at every shard
count, and two same-seed sharded runs are bit-equal to each other.  These
tests pin that contract over the whole cookbook, plus the decoupled parallel
path (with a real worker pool) and the decision that picks it: any feature
coupling replicas mid-run, and any recording, sends the fleet to the ordinary
fleet loop.  A scenario run that keeps its fleet simulates that fleet object
itself, never the shard engines' copies.
"""

from __future__ import annotations

import dataclasses
import io
import json
import logging
from pathlib import Path

import pytest

from repro.baselines.registry import get_engine_spec
from repro.cluster import Fleet
from repro.faults import FaultEvent, FaultSchedule
from repro.hardware.cluster import get_hardware_setup
from repro.obs.logging import configure as configure_logging, get_logger
from repro.obs.recorder import TraceRecorder
from repro.simulation.arrival import make_arrival
from repro.simulation.invariants import check_scenario_invariants, scenario_fingerprint
from repro.simulation.routing import LeastLoadedRouter, Router, make_router
from repro.simulation.scenario import build_mix, load_scenario, run_scenario
from repro.simulation.sharded import fleet_is_decoupled
from repro.simulation.simulator import simulate_fleet
from repro.spec.core import from_dict
from repro.spec.models import AutoscaleSpec, KVTiersSpec, ObservabilitySpec
from repro.workloads.registry import get_workload

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"
SCENARIO_FILES = sorted(path.name for path in SCENARIO_DIR.glob("*.json"))


def _canon(fingerprint: dict) -> str:
    """JSON with unrounded floats: string equality is bit equality."""
    return json.dumps(fingerprint, sort_keys=True)


def _run(spec, shards: int) -> str:
    result = run_scenario(dataclasses.replace(spec, shards=shards))
    return _canon(scenario_fingerprint(result))


def test_cookbook_covers_both_chaos_scenarios():
    """The differential sweep below must include the chaos cookbook entries."""
    assert "chaos_replica_crash.json" in SCENARIO_FILES
    assert "chaos_tiered_recovery.json" in SCENARIO_FILES


@pytest.mark.parametrize("name", SCENARIO_FILES)
def test_scenario_byte_identical_across_shard_counts(name):
    spec = load_scenario(SCENARIO_DIR / name)
    baseline = _run(spec, shards=1)
    assert baseline == _canon(scenario_fingerprint(run_scenario(spec)))
    for shards in (2, 4):
        assert _run(spec, shards) == baseline, (
            f"{name}: shards={shards} diverged from the unsharded run"
        )
    # Determinism within a shard count: same seed, same bytes.
    assert _run(spec, 4) == _run(spec, 4)


# -------------------------------------------- decoupled path, real pool


def _fleet_fingerprint(result) -> str:
    payload = {
        "summary": dataclasses.asdict(result.summary),
        "fleet": dataclasses.asdict(result.fleet),
        "cache_stats": result.cache_stats,
        "num_events": result.num_events,
        # Unsorted: record *order* must match too.
        "finished": [dataclasses.asdict(r) for r in result.finished],
        "rejected": [dataclasses.asdict(r) for r in result.rejected],
    }
    return json.dumps(payload, sort_keys=True)


def _build_fleet(num_replicas: int, trace, *, engine: str = "prefillonly",
                 max_input_length: int | None = None, **couplings) -> Fleet:
    """A user-id-routed fleet, plus any ``Fleet`` options in ``couplings``."""
    couplings.setdefault("router", make_router("user-id", num_replicas))
    return Fleet.for_setup(
        get_engine_spec(engine),
        get_hardware_setup("h100"),
        max_input_length=(
            trace.max_request_tokens if max_input_length is None else max_input_length
        ),
        num_replicas=num_replicas,
        name="identity-fleet",
        **couplings,
    )


def _make_requests(trace):
    arrival = make_arrival("diurnal", mean_rate=8.0, period_seconds=30.0,
                           amplitude=0.6, seed=11)
    return arrival.assign(list(trace.requests))


@dataclasses.dataclass(frozen=True)
class _DecoupledCase:
    """One fleet of the decoupled-path identity test."""

    shard_workers: int = 1
    engine: str = "prefillonly"
    num_users: int = 16
    num_replicas: int = 16
    shard_counts: tuple[int, ...] = (4,)
    #: Provision the MIL below this many of the longest requests.
    rejected_longest: int = 0


@pytest.mark.parametrize("case", [
    pytest.param(_DecoupledCase(shard_workers=1), id="1"),
    # A real process pool: pins the pool round-trip (pickling, merge order),
    # not just the in-process engines.
    pytest.param(_DecoupledCase(shard_workers=2), id="2"),
    # Each pipeline stage finishing is an internal event of its own.
    pytest.param(_DecoupledCase(engine="pipeline-parallel"), id="pipeline-parallel"),
    # The longest requests exceed the MIL, so an engine rejection can be a
    # replica's last event.
    pytest.param(_DecoupledCase(rejected_longest=4), id="mil-below-longest"),
    # Replicas 5 and 6 get no user, so at 7 shards two shards have replicas
    # but no arrivals.
    pytest.param(_DecoupledCase(num_users=5, num_replicas=7, shard_counts=(2, 4, 7)),
                 id="idle-shards"),
])
def test_decoupled_parallel_matches_unsharded(case):
    """A user-id-routed fleet takes the parallel path; bytes still match."""
    trace = get_workload("post-recommendation", num_users=case.num_users,
                         posts_per_user=2, seed=5)
    mil = None
    if case.rejected_longest:
        lengths = sorted(request.num_tokens for request in trace.requests)
        mil = lengths[-case.rejected_longest] - 1

    def build():
        return _build_fleet(case.num_replicas, trace, engine=case.engine,
                            max_input_length=mil)

    baseline = simulate_fleet(build(), _make_requests(trace))
    assert baseline.sharding is None
    assert baseline.num_rejected >= case.rejected_longest
    for shards in case.shard_counts:
        sharded = simulate_fleet(
            build(), _make_requests(trace),
            shards=shards, shard_workers=case.shard_workers, shard_seed=5,
        )
        assert sharded.sharding is not None
        assert sharded.sharding["mode"] == "parallel"
        assert sharded.sharding["shards"] == shards
        assert _fleet_fingerprint(sharded) == _fleet_fingerprint(baseline), (
            f"shards={shards} diverged from the unsharded run"
        )


def test_a_kept_fleet_is_the_simulated_one():
    """A decoupled scenario asked for shards still simulates the fleet it keeps.

    The KV invariants alone would pass on a fleet that never ran (its trees
    are empty), so the kept replicas must hold every finished record.
    """
    spec = dataclasses.replace(load_scenario(SCENARIO_DIR / "steady_poisson.json"),
                               shards=4)
    assert run_scenario(spec).result.sharding["mode"] == "parallel"
    result = run_scenario(spec, keep_fleet=True)
    assert result.result.num_finished > 0
    assert sum(
        len(replica.finished_requests) for replica in result.fleet.all_replicas
    ) == result.result.num_finished
    check_scenario_invariants(result, build_mix(spec).requests)


@pytest.fixture()
def repro_log():
    """The CLI log handler, writing to a buffer for one test."""
    root = logging.getLogger("repro")
    saved = (list(root.handlers), root.level, root.propagate)
    configure_logging("info")
    buffer = io.StringIO()
    root.handlers[0].setStream(buffer)
    yield buffer
    root.handlers[:] = saved[0]
    root.setLevel(saved[1])
    root.propagate = saved[2]


def test_a_sharded_run_leaves_no_shard_id_in_later_log_records(repro_log):
    """Each shard tags its records with its id and restores the context after."""
    spec = load_scenario(SCENARIO_DIR / "steady_poisson.json")
    result = run_scenario(dataclasses.replace(spec, shards=4))
    assert result.result.sharding["mode"] == "parallel"
    get_logger("test").warning("after the sharded run")
    lines = repro_log.getvalue().splitlines()
    finished = [line for line in lines if "finished:" in line]
    assert len(finished) == 1 and "shard=-]" in finished[0]
    assert any(
        line.endswith("shard=-] after the sharded run") for line in lines
    )


# ----------------------------------------------------- decoupling decision


class _StateReadingRouter(Router):
    """Ignores queue depths but reads replica state (no built-in router does)."""

    needs_queue_depths = False
    consults_instances = True

    def route(self, request, queue_depths):
        return 0


def _submitted_fleet(trace) -> Fleet:
    fleet = _build_fleet(2, trace)
    fleet.submit(trace.requests[0], 0.0)
    return fleet


def _scaled_up_fleet(trace) -> Fleet:
    fleet = _build_fleet(2, trace)
    fleet.scale_up(0.0)
    return fleet


#: ``trace -> (fleet, faults)`` builders: the bare fleet, then one coupling each.
_MODE_CASES = {
    "bare": lambda trace: (_build_fleet(2, trace), None),
    "admission": lambda trace: (
        _build_fleet(2, trace, max_queue_depth=4), None,
    ),
    "autoscaler": lambda trace: (
        _build_fleet(2, trace, autoscale=from_dict(
            AutoscaleSpec, {"scale_up_rps_per_replica": 4.0})),
        None,
    ),
    "kv-tiers": lambda trace: (
        _build_fleet(2, trace, tier_config=from_dict(KVTiersSpec, {"enabled": True})),
        None,
    ),
    "faults": lambda trace: (
        _build_fleet(2, trace),
        FaultSchedule([FaultEvent(time=1.0, kind="crash", replica=0)]),
    ),
    "least-loaded-router": lambda trace: (
        _build_fleet(2, trace, router=LeastLoadedRouter(2)), None,
    ),
    "state-reading-router": lambda trace: (
        _build_fleet(2, trace, router=_StateReadingRouter(2)), None,
    ),
    "already-submitted": lambda trace: (_submitted_fleet(trace), None),
    "already-scaled": lambda trace: (_scaled_up_fleet(trace), None),
    # Not a coupling: only the fleet loop records observability.
    "recorded": lambda trace: (
        _build_fleet(2, trace,
                     recorder=TraceRecorder(ObservabilitySpec(enabled=True))),
        None,
    ),
}


@pytest.mark.parametrize("case", list(_MODE_CASES))
def test_every_coupling_sends_the_fleet_to_lockstep(case):
    """Only the bare user-id fleet is decoupled; each coupling alone, or a
    recorder, is not."""
    trace = get_workload("post-recommendation", num_users=2, posts_per_user=1,
                         seed=3)
    fleet, faults = _MODE_CASES[case](trace)
    assert fleet_is_decoupled(fleet, faults) == (case == "bare")
