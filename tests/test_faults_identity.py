"""Byte-identity pins for the fault subsystem's disabled state.

The acceptance criterion: with ``"faults"`` absent or disabled, the fleet and
every cookbook scenario produce byte-identical results to pre-PR behaviour —
no fault code path may perturb a fault-free run.  Also pins cross-process
reproducibility of chaos runs (the scenario suite re-derives everything from
explicit seeds in worker processes).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster import Fleet
from repro.core.engine import prefillonly_engine_spec
from repro.faults import FaultSchedule
from repro.perf.runner import ParallelRunner
from repro.simulation.arrival import UniformArrivalProcess
from repro.simulation.scenario import run_scenario, run_scenario_suite, scenario_from_dict
from repro.simulation.simulator import simulate_fleet

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"
CHAOS_CONFIGS = sorted(SCENARIO_DIR.glob("chaos_*.json"))


def test_disabled_faults_fleet_is_byte_identical(h100_setup, small_post_trace):
    """None and a disabled schedule must not change a single fleet metric."""
    def run(faults):
        fleet = Fleet.for_setup(
            prefillonly_engine_spec(), h100_setup,
            max_input_length=small_post_trace.max_request_tokens, num_replicas=2,
        )
        requests = UniformArrivalProcess(rate=3.0).assign(list(small_post_trace.requests))
        return simulate_fleet(fleet, requests, faults=faults)

    plain = run(None)
    disabled = run(FaultSchedule([], enabled=False))
    key = lambda record: record.request_id  # noqa: E731
    assert sorted(disabled.finished, key=key) == sorted(plain.finished, key=key)
    assert disabled.summary == plain.summary
    assert disabled.fleet == plain.fleet
    assert disabled.fleet.as_dict() == plain.fleet.as_dict()
    assert disabled.cache_stats == plain.cache_stats
    assert disabled.num_events == plain.num_events
    # No resilience section (and no resilience report columns) without faults.
    assert plain.fleet.resilience is None
    assert "num_crashes" not in plain.fleet.as_dict()


@pytest.mark.parametrize(
    "config_path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem
)
def test_scenario_summaries_identical_with_default_off_faults(config_path):
    """Adding ``"faults": {"enabled": false}`` changes nothing, per config."""
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config.pop("faults", None)  # the chaos cookbook configs: compare both off
    baseline = run_scenario(scenario_from_dict(json.loads(json.dumps(config))))
    config["faults"] = {"enabled": False}
    disabled = run_scenario(scenario_from_dict(config))
    assert disabled.result.summary == baseline.result.summary
    assert disabled.result.fleet == baseline.result.fleet
    assert [t.as_dict() for t in disabled.tenants] == [
        t.as_dict() for t in baseline.tenants
    ]
    # Fault-free tenant rows must not grow a "retried" column — unless the
    # config carries an active resilience block, whose policies keep the
    # resilience accounting (and its retried counter) alive without chaos.
    if scenario_from_dict(json.loads(json.dumps(config))).resilience is None:
        assert all("retried" not in t.as_dict() for t in baseline.tenants)


@pytest.mark.parametrize("config_path", CHAOS_CONFIGS, ids=lambda p: p.stem)
def test_chaos_scenarios_are_bit_reproducible_across_processes(config_path):
    """A fixed scenario seed reproduces the chaos run in a worker process."""
    serial = run_scenario_suite([config_path])
    parallel = run_scenario_suite([config_path] * 2, runner=ParallelRunner(max_workers=2))
    for other in parallel:
        assert other.result.summary == serial[0].result.summary
        assert other.result.fleet == serial[0].result.fleet
        assert [t.as_dict() for t in other.tenants] == [
            t.as_dict() for t in serial[0].tenants
        ]


def test_chaos_cookbook_configs_inject_faults():
    """The shipped chaos configs actually exercise the subsystem."""
    assert CHAOS_CONFIGS, "expected chaos_*.json cookbook configs"
    for path in CHAOS_CONFIGS:
        result = run_scenario_suite([path])[0]
        resilience = result.result.fleet.resilience
        assert resilience is not None
        assert resilience.num_faults > 0
        assert all(t.retried is not None for t in result.tenants)
