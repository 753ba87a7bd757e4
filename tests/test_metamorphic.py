"""Metamorphic scenario fuzzing: resource knobs move metrics one way only.

Each test draws a ``(base, better)`` config pair from the mutators in
:mod:`repro.spec.fuzz` — two scenario documents identical except for one
resource knob turned strictly in the favourable direction — simulates both,
and checks the relation the knob's documentation promises:

* more replicas never lower goodput (:func:`capacity_pair_configs`);
* a deeper admission queue never sheds more requests
  (:func:`admission_pair_configs`);
* a faster tier interconnect never raises mean latency
  (:func:`interconnect_pair_configs`);
* a longer deadline never misses more deadlines
  (:func:`deadline_pair_configs`);
* hedging with loser cancellation never increases crash-lost tokens
  (:func:`hedge_pair_configs`);
* an inert ``"resilience"`` block is byte-identical to omitting it
  (:func:`breaker_toggle_configs`).

Unlike the invariant fuzzer (``test_scenario_fuzz.py``), which checks one
run against itself, these are *differential* oracles: they catch sign errors
and inverted comparisons that leave every single-run invariant intact — a
router preferring the fullest queue, an admission check shedding below the
limit, a transfer-time model dividing by bandwidth upside down.

Profiles are the shared ``fuzz`` / ``fuzz-smoke`` pair (``tests/conftest.py``;
``HYPOTHESIS_PROFILE=fuzz`` selects 200 examples, the tier-1 default is the
25-example smoke profile), and both are derandomized, so the corpus each
relation was verified over is the corpus CI replays.
"""

from __future__ import annotations

import json

from hypothesis import assume, given, note, settings

from repro.simulation.invariants import scenario_fingerprint
from repro.simulation.scenario import build_mix, run_scenario, scenario_from_dict
from repro.spec.fuzz import (
    admission_pair_configs,
    breaker_toggle_configs,
    capacity_pair_configs,
    deadline_pair_configs,
    hedge_pair_configs,
    interconnect_pair_configs,
)

fuzz_settings = settings.get_profile("fuzz-run")


def _run_pair(base: dict, better: dict):
    """Simulate both sides of a pair; skip draws whose stream is empty."""
    note(
        "replay: save either JSON below and run "
        "`prefillonly scenario run --config <file>`\n"
        "base:   " + json.dumps(base, sort_keys=True) + "\n"
        "better: " + json.dumps(better, sort_keys=True)
    )
    base_spec = scenario_from_dict(base)
    assume(build_mix(base_spec).requests)
    base_result = run_scenario(base_spec)
    better_result = run_scenario(scenario_from_dict(better))
    # Both sides must have seen the identical offered load, or the
    # comparison below compares nothing (rejected includes admission sheds,
    # so finished + rejected is every submitted request).
    assert (base_result.result.num_finished + base_result.result.num_rejected
            == better_result.result.num_finished
            + better_result.result.num_rejected)
    return base_result.result, better_result.result


@fuzz_settings
@given(pair=capacity_pair_configs())
def test_adding_replicas_never_lowers_goodput(pair):
    base, more = pair
    base_result, more_result = _run_pair(base, more)
    assert more_result.num_finished >= base_result.num_finished, (
        f"goodput fell from {base_result.num_finished} to "
        f"{more_result.num_finished} after adding "
        f"{more['replicas'] - base['replicas']} replica(s)"
    )


@fuzz_settings
@given(pair=admission_pair_configs())
def test_raising_admission_limit_never_sheds_more(pair):
    base, deeper = pair
    base_result, deeper_result = _run_pair(base, deeper)
    assert deeper_result.fleet.num_shed <= base_result.fleet.num_shed, (
        f"shed count rose from {base_result.fleet.num_shed} to "
        f"{deeper_result.fleet.num_shed} after raising max_queue_depth "
        f"from {base['max_queue_depth']} to {deeper['max_queue_depth']}"
    )


@fuzz_settings
@given(pair=interconnect_pair_configs())
def test_faster_interconnect_never_raises_mean_latency(pair):
    base, faster = pair
    base_result, faster_result = _run_pair(base, faster)
    # No admission control in this family: every request finishes on both
    # sides, so the two means average the same request population.
    assert faster_result.num_finished == base_result.num_finished
    assert (faster_result.summary.mean_latency
            <= base_result.summary.mean_latency), (
        f"mean latency rose from {base_result.summary.mean_latency:.6f}s to "
        f"{faster_result.summary.mean_latency:.6f}s on the faster link"
    )


@fuzz_settings
@given(pair=deadline_pair_configs())
def test_longer_deadline_never_misses_more(pair):
    base, longer = pair
    base_result, longer_result = _run_pair(base, longer)
    base_missed = base_result.fleet.resilience.policy["num_deadline_missed"]
    longer_missed = longer_result.fleet.resilience.policy["num_deadline_missed"]
    assert longer_missed <= base_missed, (
        f"deadline misses rose from {base_missed} to {longer_missed} after "
        f"extending the deadline from "
        f"{base['resilience']['deadline']['timeout_s']}s to "
        f"{longer['resilience']['deadline']['timeout_s']}s"
    )


@fuzz_settings
@given(pair=hedge_pair_configs())
def test_hedging_never_increases_lost_tokens(pair):
    base, hedged = pair
    base_result, hedged_result = _run_pair(base, hedged)
    base_lost = base_result.fleet.resilience.lost_work_tokens
    hedged_lost = hedged_result.fleet.resilience.lost_work_tokens
    assert hedged_lost <= base_lost, (
        f"crash-lost tokens rose from {base_lost} to {hedged_lost} with "
        f"hedging enabled — a cancelled or surviving hedge copy must never "
        f"count as lost work"
    )
    assert hedged_result.fleet.resilience.lost_work_tokens >= 0
    assert hedged_result.fleet.resilience.num_lost_in_flight >= 0


@fuzz_settings
@given(pair=breaker_toggle_configs())
def test_inert_resilience_block_is_byte_identical_to_omission(pair):
    base, toggled = pair
    base_spec = scenario_from_dict(base)
    assume(build_mix(base_spec).requests)
    base_fp = json.dumps(scenario_fingerprint(run_scenario(base_spec)),
                         sort_keys=True)
    toggled_fp = json.dumps(
        scenario_fingerprint(run_scenario(scenario_from_dict(toggled))),
        sort_keys=True,
    )
    assert base_fp == toggled_fp, (
        "an inert resilience block changed the simulation"
    )
