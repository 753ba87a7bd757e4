"""The event loop pauses the cyclic garbage collector, and that loses nothing.

:func:`repro.simulation.simulator.run_event_loop` disables the collector for
the loop and leaves it as its caller had it: when the loop returns, when it
raises :class:`~repro.errors.SimulationError`, and when the caller had already
disabled it.  The pause is safe because a run makes no cyclic garbage: with
the collector paused around a whole run and the fleet kept alive, a
collection afterwards finds nothing unreachable, and none once the kept
fleet is dropped.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.baselines.registry import get_engine_spec
from repro.cluster import Fleet
from repro.errors import SimulationError
from repro.hardware.cluster import get_hardware_setup
from repro.simulation.arrival import make_arrival
from repro.simulation.routing import make_router
from repro.simulation.scenario import load_scenario, run_scenario
from repro.simulation.sharded import fleet_is_decoupled
from repro.simulation.simulator import run_event_loop, simulate_fleet
from repro.workloads.registry import get_workload

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"

#: Cookbook scenarios covering KV tiers, crashes, resilience policies and
#: autoscaling.
SCENARIOS = (
    "tiered_shared_prefix.json",
    "chaos_replica_crash.json",
    "chaos_tiered_recovery.json",
    "chaos_resilience_policies.json",
    "flash_crowd_autoscale.json",
)


@contextmanager
def collector(enabled: bool):
    """Run the body with the collector on or off, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def decoupled_fleet(num_replicas: int = 8):
    """A user-id-routed fleet and its requests."""
    trace = get_workload("post-recommendation", num_users=16, posts_per_user=2, seed=5)
    fleet = Fleet.for_setup(
        get_engine_spec("prefillonly"), get_hardware_setup("h100"),
        max_input_length=trace.max_request_tokens,
        num_replicas=num_replicas,
        router=make_router("user-id", num_replicas),
        name="gc-fleet",
    )
    arrival = make_arrival("diurnal", mean_rate=8.0, period_seconds=30.0,
                           amplitude=0.6, seed=11)
    return fleet, arrival.assign(list(trace.requests))


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_loop_pauses_the_collector_and_restores_the_callers_state(enabled):
    fleet, requests = decoupled_fleet()
    seen = []
    submit = fleet.submit

    def watched_submit(request, now):
        seen.append(gc.isenabled())
        submit(request, now)

    fleet.submit = watched_submit
    with collector(enabled):
        run_event_loop(fleet, requests, max_simulated_seconds=1e7, max_events=10_000_000)
        assert gc.isenabled() is enabled
    assert len(seen) == len(requests)
    assert not any(seen)


def test_a_max_events_overrun_restores_the_collector():
    fleet, requests = decoupled_fleet()
    with collector(True):
        with pytest.raises(SimulationError, match="exceeded 3 events"):
            run_event_loop(fleet, requests, max_simulated_seconds=1e7, max_events=3)
        assert gc.isenabled()


def test_a_decoupled_sharded_run_leaves_no_cyclic_garbage():
    fleet, requests = decoupled_fleet()
    assert fleet_is_decoupled(fleet, None)
    with collector(False):
        gc.collect()
        result = simulate_fleet(fleet, requests, shards=4, shard_workers=1)
        assert gc.collect() == 0
    assert result.sharding["mode"] == "parallel"
    assert len(result.finished) == len(requests)


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_scenario_run_leaves_no_cyclic_garbage(name):
    spec = load_scenario(SCENARIO_DIR / name)
    with collector(False):
        gc.collect()
        result = run_scenario(spec, keep_fleet=True)
        assert gc.collect() == 0
        assert result.fleet is not None
        # The kept fleet holds no reference cycle either: dropping it frees
        # it by reference counting alone.
        del result
        assert gc.collect() == 0
