"""The resilience layer's two hard identity contracts, pinned end to end.

1. **Off is the seed** — with no ``"resilience"`` block (or an inert one),
   every result is byte-identical to the pre-subsystem golden fingerprints
   (``tests/golden/cookbook_fingerprints.json``), at one shard and at four.
   The policy hooks on the fleet's submit/finish/fault paths must be
   invisible when no policy is configured.
2. **On is deterministic** — an enabled policy stack is bit-reproducible:
   same seed twice, any shard count, any worker count.  Policies couple
   replicas (hedges, breakers, degrade pressure), so the sharded engine must
   run such a fleet on the globally-sequenced fleet loop rather than silently
   diverge on the pre-routed parallel path.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cluster import Fleet
from repro.core.engine import prefillonly_engine_spec
from repro.hardware.cluster import get_hardware_setup
from repro.simulation.arrival import PoissonArrivalProcess
from repro.simulation.invariants import scenario_fingerprint
from repro.simulation.routing import make_router
from repro.simulation.scenario import load_scenario, run_scenario, scenario_from_dict
from repro.simulation.sharded import fleet_is_decoupled
from repro.simulation.simulator import simulate_fleet
from repro.spec.core import from_dict
from repro.spec.models import ResilienceSpec
from repro.workloads.registry import get_workload

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "examples" / "scenarios"
GOLDEN = REPO / "tests" / "golden" / "cookbook_fingerprints.json"

#: Policy-free cookbook chaos runs: the layer must reproduce their seed
#: fingerprints bit for bit.  The policy-carrying cookbook scenarios.
SEED_STEMS = ("chaos_replica_crash", "chaos_tiered_recovery")
POLICY_STEM = "chaos_resilience_policies"


def _canon(fingerprint: dict) -> str:
    """JSON with unrounded floats: string equality is bit equality."""
    return json.dumps(fingerprint, sort_keys=True)


def _run(spec, shards: int) -> str:
    result = run_scenario(dataclasses.replace(spec, shards=shards))
    return _canon(scenario_fingerprint(result))


# ------------------------------------------------- contract 1: off == seed


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("stem", SEED_STEMS)
def test_policy_free_chaos_matches_seed_golden(stem, shards):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    spec = load_scenario(SCENARIOS / f"{stem}.json")
    assert spec.resilience is None
    fingerprint = json.loads(_canon(
        scenario_fingerprint(run_scenario(dataclasses.replace(spec, shards=shards)))
    ))
    assert fingerprint == golden[f"{stem}@shards={shards}"]


def test_inert_blocks_compile_away():
    """Disabled or empty blocks never reach the fleet: the spec drops them."""
    base = {
        "name": "inert",
        "replicas": 2,
        "seed": 3,
        "tenants": [{
            "name": "t", "workload": "post-recommendation",
            "workload_params": {"num_users": 2, "posts_per_user": 4},
            "arrival": "poisson", "arrival_params": {"rate": 4.0},
        }],
    }
    for block in ({"enabled": False, "deadline": {"timeout_s": 1.0}},
                  {"enabled": True}, {}):
        spec = scenario_from_dict({**base, "resilience": block})
        assert spec.resilience is None


def test_inert_block_is_byte_identical_to_absence():
    config = {
        "name": "inert-identity",
        "replicas": 2,
        "seed": 5,
        "faults": {"events": [
            {"kind": "crash", "replica": 0, "at": 1.0, "recover_at": 2.0},
        ]},
        "tenants": [{
            "name": "t", "workload": "post-recommendation",
            "workload_params": {"num_users": 3, "posts_per_user": 6},
            "arrival": "poisson", "arrival_params": {"rate": 6.0},
        }],
    }
    absent = _canon(scenario_fingerprint(run_scenario(scenario_from_dict(config))))
    inert = _canon(scenario_fingerprint(run_scenario(scenario_from_dict(
        {**config, "resilience": {"enabled": False, "hedge": {"delay_s": 0.5}}}
    ))))
    assert absent == inert


# ------------------------------------------- contract 2: on is deterministic


def test_policy_scenario_bit_reproducible_across_shard_counts():
    spec = load_scenario(SCENARIOS / f"{POLICY_STEM}.json")
    assert spec.resilience is not None and spec.resilience.active
    baseline = _run(spec, shards=1)
    for shards in (2, 4):
        assert _run(spec, shards) == baseline, (
            f"shards={shards} diverged from the unsharded policy run"
        )
    assert _run(spec, 4) == _run(spec, 4)


def test_policy_scenario_matches_its_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    spec = load_scenario(SCENARIOS / f"{POLICY_STEM}.json")
    for shards in (1, 4):
        fingerprint = json.loads(_canon(
            scenario_fingerprint(run_scenario(dataclasses.replace(spec, shards=shards)))
        ))
        assert fingerprint == golden[f"{POLICY_STEM}@shards={shards}"]


def _policy_fleet(trace, *, policies):
    return Fleet.for_setup(
        prefillonly_engine_spec(), get_hardware_setup("h100"),
        max_input_length=trace.max_request_tokens, num_replicas=2,
        router=make_router("user-id", 2), policies=policies,
    )


def _result_bytes(result) -> str:
    payload = {
        "summary": dataclasses.asdict(result.summary),
        "fleet": result.fleet.as_dict(),
        "num_events": result.num_events,
        "finished": [dataclasses.asdict(r) for r in result.finished],
        "rejected": [dataclasses.asdict(r) for r in result.rejected],
    }
    return json.dumps(payload, sort_keys=True)


def test_policies_force_lockstep_and_match_across_modes_and_workers():
    """User-id routing without policies is decoupled; adding any policy
    couples the fleet, which then runs the fleet loop at every shard count —
    four shards, with or without a worker pool, give the unsharded bytes."""
    trace = get_workload("post-recommendation", num_users=4, posts_per_user=8,
                         seed=7)
    policies = from_dict(ResilienceSpec, {
        "deadline": {"timeout_s": 30.0},
        "hedge": {"delay_s": 2.0},
    })
    assert fleet_is_decoupled(_policy_fleet(trace, policies=None), None)
    assert not fleet_is_decoupled(_policy_fleet(trace, policies=policies), None)

    def run(shards, shard_workers):
        fleet = _policy_fleet(trace, policies=policies)
        requests = PoissonArrivalProcess(rate=8.0, seed=0).assign(
            list(trace.requests)
        )
        return _result_bytes(simulate_fleet(
            fleet, requests, shards=shards, shard_workers=shard_workers,
        ))

    baseline = run(1, 1)
    assert run(4, 1) == baseline
    assert run(4, 2) == baseline
