"""Resilience-policy layer: config, state machines, and fleet semantics.

Unit coverage for :mod:`repro.resilience` (typed config errors, circuit
breaker, degrade controller, seeded retry/hedge derivations) plus the fleet
contracts the policies promise: deadline cancellation in queue and in
flight, hedge losers never billed as lost work, retry accounting that stays
conservative under chained crashes, and the fault-schedule edge cases
(overlapping mixed-kind windows, events at t=0 and beyond the horizon,
recover without a prior crash, MTTR with no completed repair).
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import Fleet
from repro.core.engine import prefillonly_engine_spec
from repro.errors import FaultScheduleError, ResilienceSpecError
from repro.faults import FaultEvent, fault_schedule_from_dict
from repro.resilience import (
    CircuitBreaker,
    DegradeController,
    PolicyRuntime,
    resilience_from_dict,
)
from repro.resilience.policy import HEDGE_SAMPLE_WINDOW
from repro.simulation.arrival import PoissonArrivalProcess
from repro.simulation.simulator import simulate_fleet
from repro.spec.models import BreakerSpec, DegradationSpec, ResilienceSpec

# A generous hedge/crash window: short enough that a multi-hundred-token
# prefill is still running, long enough to order the events explicitly.
TINY = 1e-3


def build_fleet(setup, trace, *, num_replicas=2, policies=None, **kwargs):
    return Fleet.for_setup(
        prefillonly_engine_spec(), setup,
        max_input_length=trace.max_request_tokens,
        num_replicas=num_replicas, policies=policies, **kwargs,
    )


def arrivals(trace, *, rate=4.0, seed=0):
    return PoissonArrivalProcess(rate=rate, seed=seed).assign(list(trace.requests))


# ------------------------------------------------------------ configuration


def test_inert_blocks_compile_inactive():
    assert not resilience_from_dict({}).active
    assert not resilience_from_dict({"enabled": True}).active
    disabled = resilience_from_dict({
        "enabled": False, "deadline": {"timeout_s": 1.0},
    })
    assert not disabled.active
    assert ResilienceSpec().active is False


def test_active_block_compiles_every_policy():
    config = resilience_from_dict({
        "seed": 7,
        "deadline": {"timeout_s": 9.0},
        "retry": {"max_attempts": 2, "budget_per_tenant": 5},
        "hedge": {"delay_s": 0.5},
        "breaker": {"window": 8},
        "degrade": {"depth_per_replica": 4.0, "shed_depth_per_replica": 8.0,
                    "low_priority_tenants": ["batch"]},
    })
    assert config.active
    assert config.seed == 7
    assert config.deadline.timeout_s == 9.0
    assert config.retry.max_attempts == 2
    assert config.hedge.delay_s == 0.5
    assert config.breaker.window == 8
    assert config.degrade.low_priority_tenants == ("batch",)


@pytest.mark.parametrize("config, fragment", [
    ({"bogus": 1}, "unknown keys"),
    ({"deadline": {"timeout_s": 0.0}}, "timeout_s"),
    ({"retry": {"max_attempts": 0}}, "max_attempts"),
    ({"hedge": {"percentile": 120}}, "percentile"),
    ({"breaker": {"failure_ratio": 1.5}}, "failure_ratio"),
    ({"degrade": {"depth_per_replica": 8.0, "shed_depth_per_replica": 4.0}},
     "must be >= depth_per_replica"),
    ({"degrade": {"depth_per_replica": 2.0, "low_priority_tenants": [7]}},
     "non-empty strings"),
], ids=[
    "unknown-top-key", "zero-timeout", "zero-attempts", "bad-percentile",
    "bad-failure-ratio", "shed-below-depth", "bad-tenant-name",
])
def test_malformed_resilience_raises_typed_errors(config, fragment):
    with pytest.raises(ResilienceSpecError) as excinfo:
        resilience_from_dict(config)
    assert fragment in str(excinfo.value)
    assert excinfo.value.path.startswith("resilience")


def test_spot_preempt_schedule_validation():
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "spot_preempt", "replica": 0, "at": 2.0, "warning_s": 1.0,
         "recover_at": 5.0},
    ]})
    assert [(event.time, event.kind) for event in schedule] == [
        (2.0, "spot_preempt"), (3.0, "spot_preempt-kill"), (5.0, "recover"),
    ]
    with pytest.raises(FaultScheduleError) as excinfo:
        fault_schedule_from_dict({"events": [
            {"kind": "spot_preempt", "replica": 0, "at": 2.0, "warning_s": 1.0,
             "recover_at": 3.0},
        ]})
    assert "recover_at" in str(excinfo.value)


# ---------------------------------------------------------- circuit breaker


def _breaker_policy(**overrides):
    params = dict(window=4, failure_ratio=0.5, min_samples=2, cooldown_s=10.0,
                  half_open_probes=2, slow_latency_s=None)
    params.update(overrides)
    return BreakerSpec(**params)


def test_breaker_trips_on_windowed_failure_ratio():
    transitions = []
    breaker = CircuitBreaker(
        _breaker_policy(),
        on_transition=lambda old, new, now: transitions.append((old, new, now)),
    )
    assert breaker.state == "closed" and breaker.allows(0.0)
    breaker.on_failure(1.0)          # 1 outcome < min_samples: stays closed
    assert breaker.state == "closed"
    breaker.on_success(2.0)          # window [F, T]: ratio 0.5 but no trip yet
    breaker.on_failure(3.0)          # window [F, T, F]: ratio 2/3 >= 0.5
    assert breaker.state == "open"
    assert not breaker.allows(3.0)
    assert transitions == [("closed", "open", 3.0)]


def test_breaker_cooldown_probes_and_close():
    breaker = CircuitBreaker(_breaker_policy())
    breaker.on_failure(0.0)
    breaker.on_failure(0.0)
    assert breaker.state == "open"
    assert not breaker.allows(9.0)            # cooldown not elapsed
    assert breaker.allows(10.0)               # half-open: probes available
    assert breaker.state == "half-open"
    breaker.on_routed(10.0)
    breaker.on_routed(10.5)
    assert not breaker.allows(10.5)           # both probe slots consumed
    breaker.on_success(11.0)
    assert breaker.state == "half-open"       # one success is not enough
    breaker.on_success(11.5)
    assert breaker.state == "closed"
    # The window was cleared: old failures no longer count toward the ratio.
    breaker.on_failure(12.0)
    assert breaker.state == "closed"


def test_breaker_half_open_failure_reopens_and_restarts_cooldown():
    breaker = CircuitBreaker(_breaker_policy())
    breaker.on_failure(0.0)
    breaker.on_failure(0.0)
    assert breaker.allows(10.0)               # half-open
    breaker.on_failure(10.0)
    assert breaker.state == "open"
    assert not breaker.allows(19.9)           # cooldown restarted at t=10
    assert breaker.allows(20.0)


def test_breaker_bank_counts_slow_completions_as_failures():
    from repro.resilience.policy import BreakerBank

    bank = BreakerBank(_breaker_policy(slow_latency_s=1.0))
    bank.clock = 5.0
    bank.on_success(0, 2.0, 5.0)              # slower than 1.0s: a failure
    bank.on_success(0, 3.0, 5.0)
    assert bank.state(0) == "open"
    assert not bank.allows(0)
    bank.discard(0)
    assert bank.state(0) == "closed"          # forgotten replicas start fresh


# -------------------------------------------------------- degrade controller


def test_degrade_hysteresis_and_degraded_seconds():
    policy = DegradationSpec(
        depth_per_replica=5.0, shed_depth_per_replica=10.0,
        sustain_s=2.0, recover_s=3.0, low_priority_tenants=("batch",),
    )
    transitions = []
    degrade = DegradeController(
        policy, on_transition=lambda old, new, now: transitions.append((old, new, now)),
    )
    degrade.observe(6.0, 0.0)
    assert degrade.tier == 0                  # pressure yes, sustain not met
    degrade.observe(6.0, 1.0)
    assert degrade.tier == 0
    degrade.observe(6.0, 2.0)
    assert degrade.tier == 1                  # 2s sustained above tier-1 depth
    degrade.observe(12.0, 2.0)
    assert degrade.tier == 1                  # tier 2 needs its own sustain
    degrade.observe(12.0, 4.0)
    assert degrade.tier == 2
    degrade.observe(0.0, 5.0)
    assert degrade.tier == 2                  # recover window not elapsed
    degrade.observe(0.0, 8.0)
    assert degrade.tier == 0                  # 3s below both thresholds
    assert transitions == [(0, 1, 2.0), (1, 2, 4.0), (2, 0, 8.0)]
    assert degrade.degraded_seconds == pytest.approx(6.0)  # t=2 .. t=8


def test_degrade_finalize_closes_trailing_interval():
    policy = DegradationSpec(
        depth_per_replica=1.0, shed_depth_per_replica=None,
        sustain_s=0.0, recover_s=10.0, low_priority_tenants=(),
    )
    degrade = DegradeController(policy)
    degrade.observe(2.0, 1.0)
    assert degrade.tier == 1                  # sustain 0: engages immediately
    degrade.finalize(4.5)
    assert degrade.degraded_seconds == pytest.approx(3.5)
    degrade.finalize(9.0)                     # idempotent: interval closed
    assert degrade.degraded_seconds == pytest.approx(3.5)


# ------------------------------------------------- seeded retry / hedge math


def test_retry_delay_is_a_pure_function_of_seed_request_attempt():
    config = resilience_from_dict({
        "seed": 11,
        "retry": {"backoff_base_s": 0.5, "backoff_multiplier": 2.0,
                  "jitter": 0.5},
    })
    runtime = PolicyRuntime(config)
    again = PolicyRuntime(config)
    assert runtime.retry_delay(5, 1) == again.retry_delay(5, 1)
    assert runtime.retry_delay(5, 1) != runtime.retry_delay(5, 2)
    assert runtime.retry_delay(5, 1) != runtime.retry_delay(6, 1)
    other_seed = PolicyRuntime(resilience_from_dict({
        "seed": 12,
        "retry": {"backoff_base_s": 0.5, "backoff_multiplier": 2.0,
                  "jitter": 0.5},
    }))
    assert runtime.retry_delay(5, 1) != other_seed.retry_delay(5, 1)
    # The jittered delay stays inside the documented envelope.
    for attempt in (1, 2, 3):
        delay = runtime.retry_delay(5, attempt)
        base = 0.5 * 2.0 ** (attempt - 1)
        assert base <= delay <= base * 1.5


def test_retry_delay_without_jitter_is_exact_backoff():
    runtime = PolicyRuntime(resilience_from_dict({
        "retry": {"backoff_base_s": 0.25, "backoff_multiplier": 3.0,
                  "jitter": 0.0},
    }))
    assert runtime.retry_delay(1, 1) == pytest.approx(0.25)
    assert runtime.retry_delay(1, 2) == pytest.approx(0.75)
    assert runtime.retry_delay(1, 3) == pytest.approx(2.25)


def test_retry_budget_is_per_tenant():
    runtime = PolicyRuntime(resilience_from_dict({
        "retry": {"budget_per_tenant": 2},
    }))
    assert runtime.try_consume_retry_budget("a")
    assert runtime.try_consume_retry_budget("a")
    assert not runtime.try_consume_retry_budget("a")
    assert runtime.try_consume_retry_budget("b")  # separate tenant, own budget
    unlimited = PolicyRuntime(resilience_from_dict({"retry": {}}))
    assert all(unlimited.try_consume_retry_budget(None) for _ in range(100))


def test_hedge_delay_needs_samples_and_respects_floor():
    runtime = PolicyRuntime(resilience_from_dict({
        "hedge": {"percentile": 90, "min_samples": 3, "min_delay_s": 0.5},
    }))
    assert runtime.hedge_delay() is None
    runtime.record_latency(0.1)
    runtime.record_latency(0.2)
    assert runtime.hedge_delay() is None      # still below min_samples
    runtime.record_latency(0.3)
    assert runtime.hedge_delay() == pytest.approx(0.5)  # floored at min_delay_s
    for _ in range(10):
        runtime.record_latency(4.0)
    assert runtime.hedge_delay() == pytest.approx(4.0)


@settings.get_profile("fuzz-run")
# Wraps the window with ties and fractional positions on both sides of 0.5,
# in every run, not only in the runs that draw such a case.
@example(count=HEDGE_SAMPLE_WINDOW + 100, seed=0, distinct=7, percentile=95.0)
@example(count=HEDGE_SAMPLE_WINDOW + 100, seed=1, distinct=0, percentile=90.0)
@given(count=st.integers(1, 3 * HEDGE_SAMPLE_WINDOW // 2 + 200),
       seed=st.integers(0, 2**32 - 1),
       distinct=st.sampled_from([0, 2, 7, 60]),
       percentile=st.one_of(st.sampled_from([50.0, 90.0, 95.0, 99.0, 100.0]),
                            st.floats(50.0, 100.0)))
def test_hedge_delay_is_numpys_linear_quantile_bit_for_bit(count, seed, distinct,
                                                           percentile):
    """After every completion the delay equals ``np.quantile`` of the trailing
    window, to the last bit, as the window wraps and with tied samples."""
    runtime = PolicyRuntime(resilience_from_dict({"hedge": {
        "percentile": percentile, "min_samples": 1, "min_delay_s": 1e-9,
    }}))
    rng = np.random.default_rng(seed)
    if distinct:  # draw from a few values, so the window holds ties
        latencies = rng.choice(rng.lognormal(-1.0, 1.0, size=distinct), size=count)
    else:
        latencies = rng.lognormal(-1.0, 1.0, size=count)
    window: deque[float] = deque(maxlen=HEDGE_SAMPLE_WINDOW)
    for latency in latencies.tolist():
        runtime.record_latency(latency)
        window.append(latency)
        expected = max(float(np.quantile(np.fromiter(window, dtype=float),
                                         percentile / 100.0)), 1e-9)
        assert runtime.hedge_delay().hex() == expected.hex()


def test_fixed_hedge_delay_ignores_samples():
    runtime = PolicyRuntime(resilience_from_dict({"hedge": {"delay_s": 1.25}}))
    assert runtime.hedge_delay() == 1.25
    runtime.record_latency(100.0)
    assert runtime.hedge_delay() == 1.25


# --------------------------------------------------- fleet: deadlines


def test_deadline_cancels_queued_and_running_work(h100_setup, small_post_trace):
    policies = resilience_from_dict({"deadline": {"timeout_s": TINY}})
    fleet = build_fleet(h100_setup, small_post_trace, num_replicas=1,
                        policies=policies)
    first, second = small_post_trace.requests[:2]
    fleet.submit(first, 0.0)                  # starts running immediately
    fleet.submit(second, 0.0)                 # queues behind it
    due = fleet.next_policy_time()
    assert due == pytest.approx(TINY)
    fleet.apply_policy_timers(due)
    assert fleet.resilience.num_deadline_missed == 2
    rejected = fleet.rejected_requests()
    assert sorted(record.request_id for record in rejected) == sorted(
        [first.request_id, second.request_id]
    )
    assert all("deadline missed" in record.rejection_reason
               for record in rejected)
    assert fleet.next_policy_time() is None   # no timers left behind
    # The engine really dropped both: nothing finishes afterwards.
    state = fleet._active[0]
    assert not state.instance.has_request(first.request_id)
    assert not state.instance.has_request(second.request_id)


def test_deadline_misses_count_in_end_to_end_run(h100_setup, small_post_trace):
    policies = resilience_from_dict({"deadline": {"timeout_s": 0.2}})
    fleet = build_fleet(h100_setup, small_post_trace, num_replicas=1,
                        policies=policies)
    requests = arrivals(small_post_trace, rate=20.0)
    result = simulate_fleet(fleet, requests)
    policy = result.fleet.resilience.policy
    assert policy["num_deadline_missed"] > 0
    assert policy["num_deadline_missed"] == len(result.rejected)
    # Conservation: every request terminates exactly once.
    ids = sorted(record.request_id
                 for record in list(result.finished) + list(result.rejected))
    assert ids == sorted(request.request_id for request in requests)
    # Every survivor beat the deadline.
    assert all(record.latency <= 0.2 + 1e-9 for record in result.finished)


# --------------------------------------------------- fleet: hedge rollback


def _hedged_single_request(setup, trace, *, num_replicas=2):
    """A fleet with one tracked request, its hedge copy already launched."""
    policies = resilience_from_dict({"hedge": {"delay_s": TINY}})
    fleet = build_fleet(setup, trace, num_replicas=num_replicas,
                        policies=policies)
    request = max(trace.requests, key=lambda entry: entry.num_tokens)
    fleet.submit(request, 0.0)
    fleet.apply_policy_timers(fleet.next_policy_time())
    assert fleet.resilience.num_hedges == 1
    tracked = fleet._tracked[request.request_id]
    assert tracked.hedge_key is not None and tracked.hedge_key != tracked.primary_key
    return fleet, request, tracked


def test_crashed_hedge_copy_is_not_billed_as_lost_work(h100_setup, small_post_trace):
    fleet, request, tracked = _hedged_single_request(h100_setup, small_post_trace)
    fleet.apply_fault(
        FaultEvent(time=2 * TINY, kind="crash", replica=tracked.hedge_key),
        2 * TINY,
    )
    # The hedge copy died mid-flight but the primary still carries the
    # request, so no work was lost from the caller's point of view.
    assert fleet.resilience.num_crashes == 1
    assert fleet.resilience.lost_work_tokens == 0
    assert fleet.resilience.num_lost_in_flight == 0
    assert tracked.hedge_key is None          # hedge slot cleared
    assert not tracked.done
    primary = next(state for state in fleet._active
                   if state.key == tracked.primary_key)
    assert primary.instance.has_request(request.request_id)


def test_crashed_primary_promotes_hedge_without_lost_work(h100_setup, small_post_trace):
    fleet, request, tracked = _hedged_single_request(h100_setup, small_post_trace)
    old_hedge = tracked.hedge_key
    fleet.apply_fault(
        FaultEvent(time=2 * TINY, kind="crash", replica=tracked.primary_key),
        2 * TINY,
    )
    assert fleet.resilience.num_crashes == 1
    assert fleet.resilience.lost_work_tokens == 0
    assert fleet.resilience.num_lost_in_flight == 0
    assert tracked.primary_key == old_hedge   # the hedge copy took over
    assert tracked.hedge_key is None
    survivor = next(state for state in fleet._active
                    if state.key == tracked.primary_key)
    assert survivor.instance.has_request(request.request_id)


def test_unhedged_crash_still_bills_lost_work(h100_setup, small_post_trace):
    """The rollback is hedge-specific: a plain crash victim stays billed."""
    policies = resilience_from_dict({"hedge": {"delay_s": 1e6}})
    fleet = build_fleet(h100_setup, small_post_trace, policies=policies)
    request = max(small_post_trace.requests, key=lambda entry: entry.num_tokens)
    fleet.submit(request, 0.0)
    primary = fleet._tracked[request.request_id].primary_key
    fleet.apply_fault(FaultEvent(time=TINY, kind="crash", replica=primary), TINY)
    assert fleet.resilience.num_lost_in_flight == 1
    assert fleet.resilience.lost_work_tokens == request.num_tokens


def test_hedged_chaos_run_conserves_requests(h100_setup, small_post_trace):
    policies = resilience_from_dict({"hedge": {"delay_s": 2.0}})
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "crash", "replica": 0, "at": 1.0, "recover_at": 2.0},
        {"kind": "crash", "replica": 1, "at": 3.0, "recover_at": 4.0},
    ]})
    fleet = build_fleet(h100_setup, small_post_trace, policies=policies)
    requests = arrivals(small_post_trace, rate=8.0)
    result = simulate_fleet(fleet, requests, faults=schedule)
    policy = result.fleet.resilience.policy
    assert policy["num_hedges"] > 0
    assert policy["num_hedge_wins"] <= policy["num_hedges"]
    assert policy["hedge_wasted_tokens"] >= 0
    # First-completion-wins: each request terminates exactly once even though
    # two copies may have been in flight.
    ids = [record.request_id
           for record in list(result.finished) + list(result.rejected)]
    assert sorted(ids) == sorted(request.request_id for request in requests)
    assert len(set(ids)) == len(ids)


# ------------------------------------- fleet: retry under chained faults


def test_retry_accounting_survives_chained_crashes(h100_setup, small_post_trace):
    """A crash that kills a retry re-execution must not double-bill anything."""
    policies = resilience_from_dict({
        "retry": {"max_attempts": 3, "backoff_base_s": 0.3,
                  "backoff_multiplier": 1.0, "jitter": 0.0},
    })
    # Two waves: requests evacuated by the first crash re-execute after a
    # 0.3s backoff, landing inside the second crash's blast radius.
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "crash", "replica": 0, "at": 1.0, "recover_at": 1.6},
        {"kind": "crash", "replica": 1, "at": 1.5, "recover_at": 2.5},
        {"kind": "crash", "replica": 0, "at": 2.0, "recover_at": 3.0},
    ]})
    fleet = build_fleet(h100_setup, small_post_trace, policies=policies)
    requests = arrivals(small_post_trace, rate=8.0)
    result = simulate_fleet(fleet, requests, faults=schedule)
    res = result.fleet.resilience
    assert res.num_crashes == 3
    assert res.num_retried > 0
    # Conservation: every request terminates exactly once, attempts included.
    ids = [record.request_id
           for record in list(result.finished) + list(result.rejected)]
    assert sorted(ids) == sorted(request.request_id for request in requests)
    assert len(set(ids)) == len(ids)
    # No double-billed losses: each lost in-flight execution is billed once,
    # and never more than the largest request could account for.
    largest = max(request.num_tokens for request in requests)
    assert 0 <= res.lost_work_tokens <= res.num_lost_in_flight * largest
    # Attempts stay bounded by the policy even across chained crashes.
    assert all(tracked.attempts <= 3 for tracked in fleet._tracked.values())
    exhausted = [record for record in result.rejected
                 if "retry" in (record.rejection_reason or "")]
    assert res.policy["num_retry_exhausted"] == len(exhausted)


def test_retry_budget_exhaustion_rejects_with_reason(h100_setup, small_post_trace):
    policies = resilience_from_dict({
        "retry": {"max_attempts": 5, "budget_per_tenant": 0,
                  "backoff_base_s": 0.1, "jitter": 0.0},
    })
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "crash", "replica": 0, "at": 0.5},
    ]})
    fleet = build_fleet(h100_setup, small_post_trace, policies=policies)
    requests = arrivals(small_post_trace, rate=8.0)
    result = simulate_fleet(fleet, requests, faults=schedule)
    res = result.fleet.resilience
    # Zero budget: every evacuated request is rejected, none re-executes.
    assert res.policy["num_retry_exhausted"] > 0
    assert res.num_retried == 0
    reasons = [record.rejection_reason for record in result.rejected]
    assert all("retry budget exhausted" in reason for reason in reasons)


# ------------------------------------------------ fault-schedule edge cases


def test_overlapping_slow_and_brownout_windows_coexist(h100_setup, small_post_trace):
    """Different-kind windows on one replica overlap freely and unwind
    independently — only same-kind overlaps are rejected at parse time."""
    from repro.kvcache.tiers import tier_config_from_dict

    fleet = Fleet.for_setup(
        prefillonly_engine_spec(), h100_setup,
        max_input_length=small_post_trace.max_request_tokens, num_replicas=2,
        tier_config=tier_config_from_dict({"enabled": True, "tiers": {
            "host": {"capacity_gib": 1.0}, "cluster": {"capacity_gib": 4.0},
        }}),
    )
    assert fleet.apply_fault(
        FaultEvent(time=1.0, kind="slow", replica=0, multiplier=3.0), 1.0)
    assert fleet.apply_fault(
        FaultEvent(time=2.0, kind="brownout", multiplier=4.0), 2.0)
    # Both effects live at once on replica 0.
    assert fleet.replicas[0].slowdown == 3.0
    assert fleet.replicas[0].kv.tiers.host.cost_multiplier == 4.0
    # The windows close in their own order without disturbing each other.
    assert fleet.apply_fault(FaultEvent(time=3.0, kind="brownout-end"), 3.0)
    assert fleet.replicas[0].slowdown == 3.0
    assert fleet.replicas[0].kv.tiers.host.cost_multiplier == 1.0
    assert fleet.apply_fault(FaultEvent(time=4.0, kind="slow-end", replica=0), 4.0)
    assert fleet.replicas[0].slowdown == 1.0


def test_recover_without_prior_crash_is_skipped(h100_setup, small_post_trace):
    fleet = build_fleet(h100_setup, small_post_trace)
    applied = fleet.apply_fault(FaultEvent(time=1.0, kind="recover", replica=1), 1.0)
    assert not applied
    assert fleet.resilience.num_faults_skipped == 1
    assert fleet.resilience.num_recoveries == 0
    assert fleet.num_replicas == 2            # the live replica is untouched


def test_events_at_time_zero_and_beyond_horizon(h100_setup, small_post_trace):
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "slow", "replica": 1, "at": 0.0, "duration": 0.5,
         "multiplier": 2.0},
        {"kind": "crash", "replica": 0, "at": 0.0},
        {"kind": "crash", "replica": 1, "at": 1e6},   # long after the last finish
    ]})
    fleet = build_fleet(h100_setup, small_post_trace)
    requests = arrivals(small_post_trace)
    result = simulate_fleet(fleet, requests, faults=schedule)
    res = result.fleet.resilience
    # t=0 events land before the first arrival; the beyond-horizon crash is
    # still delivered (and applied) after the last request completes.
    assert res.num_crashes == 2
    assert res.num_slow_events == 1
    assert result.num_finished == len(requests)  # nothing was in flight at 1e6
    crash_times = [row["time_s"] for row in res.fault_log
                   if row["kind"] == "crash"]
    assert crash_times == [0.0, 1e6]


def test_mttr_is_zero_when_no_repair_completes(h100_setup, small_post_trace):
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "crash", "replica": 0, "at": 1.0},   # never recovers
    ]})
    fleet = build_fleet(h100_setup, small_post_trace)
    result = simulate_fleet(fleet, arrivals(small_post_trace), faults=schedule)
    res = result.fleet.resilience
    assert res.num_crashes == 1 and res.num_recoveries == 0
    assert res.mean_mttr_s == 0.0
    assert fleet.resilience.mttr_samples == []


# --------------------------------------------------------------- degrade


def test_degrade_tier2_sheds_low_priority_tenants_only(h100_setup, small_post_trace):
    policies = resilience_from_dict({"degrade": {
        "depth_per_replica": 0.1, "shed_depth_per_replica": 0.1,
        "sustain_s": 0.0, "recover_s": 1e6,
        "low_priority_tenants": ["batch"],
    }})
    fleet = build_fleet(h100_setup, small_post_trace, num_replicas=1,
                        policies=policies)
    import dataclasses

    requests = arrivals(small_post_trace, rate=50.0)
    for index, request in enumerate(requests):
        tenant = "batch" if index % 2 else "prod"
        fleet.submit(
            dataclasses.replace(request, metadata={**request.metadata,
                                                   "tenant": tenant}),
            request.arrival_time,
        )
    # Pressure builds instantly (sustain 0), so later batch submissions shed.
    assert fleet.resilience.num_degrade_sheds > 0
    shed_reasons = [record.rejection_reason for record in fleet.rejected_requests()]
    assert all("low-priority tenant 'batch'" in reason for reason in shed_reasons)
