"""Scenario fuzzer: random valid specs through the full fleet simulator.

Every example drawn from :func:`repro.spec.fuzz.scenario_configs` is parsed
by the spec layer, simulated end to end, and checked against the global
invariants in :mod:`repro.simulation.invariants` — request conservation,
goodput bound, single KV residency, tenant consistency — plus same-seed
bit-reproducibility via a second independent run.

The hypothesis profiles are the shared ``fuzz`` / ``fuzz-smoke`` pair
(``tests/conftest.py``; ``make fuzz`` runs the 200-example one).  Both are
derandomized: a failure reproduces on every run, and the falsifying example's
notes include the scenario JSON so it can be saved to a file and replayed
with ``prefillonly scenario run --config <file>``.
"""

from __future__ import annotations

import json

from hypothesis import assume, given, note, settings

from repro.simulation.invariants import (
    check_scenario_invariants,
    scenario_fingerprint,
)
from repro.simulation.scenario import build_mix, run_scenario, scenario_from_dict
from repro.spec.core import from_dict, normalize, to_dict
from repro.spec.fuzz import _ARRIVAL_STRATEGIES, _WORKLOAD_STRATEGIES, scenario_configs
from repro.spec.models import ScenarioModel

fuzz_settings = settings.get_profile("fuzz-run")


def test_fuzzer_matches_runtime_registries():
    """The fuzzer's name tables must track the runtime registries.

    If a workload, arrival process, or router is added without teaching the
    fuzzer about it, that dimension silently stops being covered — fail
    loudly here instead.
    """
    from repro.simulation.arrival import ARRIVAL_FACTORIES
    from repro.simulation.routing import ROUTER_FACTORIES
    from repro.workloads.registry import list_workloads

    assert sorted(_WORKLOAD_STRATEGIES) == list_workloads()
    missing_arrivals = set(ARRIVAL_FACTORIES) - set(_ARRIVAL_STRATEGIES)
    assert not missing_arrivals, (
        f"arrival processes not covered by the fuzzer: {sorted(missing_arrivals)}"
    )
    assert set(_ARRIVAL_STRATEGIES) <= set(ARRIVAL_FACTORIES)
    assert {"user-id", "least-loaded", "prefix-affinity"} == set(ROUTER_FACTORIES)


@fuzz_settings
@given(config=scenario_configs())
def test_fuzzed_scenarios_satisfy_global_invariants(config):
    """Invariants 1-5 hold for every randomly generated valid scenario."""
    # The replay JSON spells out the shard count and seed even when the draw
    # left them defaulted: an InvariantViolation must be replayable on the
    # exact engine configuration (sharded or not) and RNG streams that hit it.
    replay = dict(config)
    replay.setdefault("shards", 1)
    replay.setdefault("seed", 0)
    note(
        "replay: save the JSON below to fail.json and run "
        "`prefillonly scenario run --config fail.json`\n"
        + json.dumps(replay, sort_keys=True)
    )
    spec = scenario_from_dict(config)
    requests = build_mix(spec).requests
    # A sub-1.0 tenant weight can subsample a tiny trace down to nothing;
    # run_scenario correctly refuses empty streams, so skip those draws.
    assume(requests)

    first = run_scenario(spec, keep_fleet=True)
    check_scenario_invariants(first, requests)

    second = run_scenario(spec)
    assert scenario_fingerprint(first) == scenario_fingerprint(second), (
        "same spec, same seed, different results — determinism is broken"
    )


@fuzz_settings
@given(config=scenario_configs())
def test_fuzzed_configs_reparse_from_normalized_form(config):
    """A generated document survives a JSON round trip, and the two
    independent spec walks (``to_dict(from_dict(x))`` vs ``normalize(x)``)
    agree on it."""
    model = from_dict(ScenarioModel, config)
    rehydrated = from_dict(ScenarioModel, json.loads(json.dumps(config)))
    assert model == rehydrated
    assert to_dict(model) == normalize(ScenarioModel, config)
