"""ReactiveAutoscaler window edge cases and no-flapping under replica churn.

The sliding-window arrival rate must degrade to a clean zero when ``_trim``
empties the window (long idle gaps — exactly what an all-crashed chaos interval
produces), and the hysteresis/cooldown machinery must keep the fleet from
flapping when queue depths oscillate during replica loss and rejoin.
"""

from __future__ import annotations

import pytest

from repro.cluster import Fleet, ReactiveAutoscaler
from repro.core.engine import prefillonly_engine_spec
from repro.faults import fault_schedule_from_dict
from repro.simulation.arrival import PoissonArrivalProcess
from repro.simulation.simulator import simulate_fleet
from repro.spec.core import from_dict
from repro.spec.models import AutoscaleSpec


def autoscale_spec(**kwargs) -> AutoscaleSpec:
    defaults = dict(
        min_replicas=1, max_replicas=4, scale_up_rps_per_replica=2.0,
        window_seconds=10.0, cooldown_seconds=20.0,
    )
    defaults.update(kwargs)
    return from_dict(AutoscaleSpec, defaults)


def make_autoscaler(**kwargs):
    return ReactiveAutoscaler(autoscale_spec(**kwargs))


# ----------------------------------------------------------- window edges


def test_arrival_rate_is_zero_after_trim_empties_the_window():
    autoscaler = make_autoscaler()
    for t in (0.5, 1.0, 1.5):
        autoscaler.observe_arrival(t)
    assert autoscaler.arrival_rate(2.0) > 0
    # Far past the window: every sample trims away — rate must be 0, not raise.
    assert autoscaler.arrival_rate(1000.0) == 0.0
    assert len(autoscaler._arrivals) == 0


def test_signals_at_time_zero_do_not_divide_by_zero():
    autoscaler = make_autoscaler()
    assert autoscaler.arrival_rate(0.0) == 0.0


def test_decide_holds_after_idle_gap_rather_than_scaling_down_blind():
    """An emptied window reads as rate 0 — scale-down must still respect the
    queue-depth guard, so a busy-but-quiet fleet is not shrunk mid-burst."""
    autoscaler = make_autoscaler()
    for t in range(40):
        autoscaler.observe_arrival(t)
    # Long gap; the window is empty but queues are deep (a stalled fleet).
    assert autoscaler.decide(500.0, 2, [5, 5]) == 0
    # With empty queues the idle fleet may shrink — exactly one step.
    assert autoscaler.decide(500.0, 2, [0, 0]) == -1


# ------------------------------------------------------------ no flapping


def test_no_flapping_when_queue_depths_oscillate():
    autoscaler = make_autoscaler(cooldown_seconds=30.0)
    votes = []
    for step in range(200):
        now = 15.0 + step * 0.5
        autoscaler.observe_arrival(now)  # ~2 rps offered
        depths = [8, 0] if step % 2 == 0 else [0, 8]  # oscillating imbalance
        votes.append((now, autoscaler.decide(now, 2, depths)))
    scale_times = [now for now, vote in votes if vote != 0]
    # Cooldown bounds the event rate regardless of the oscillation.
    for earlier, later in zip(scale_times, scale_times[1:]):
        assert later - earlier >= autoscaler.spec.cooldown_seconds


def test_no_flapping_during_replica_loss_and_rejoin(h100_setup, small_post_trace):
    """Crash/recover churn must not make the autoscaler thrash: every pair of
    applied scale events stays at least one cooldown apart."""
    spec = autoscale_spec(
        max_replicas=4, scale_up_rps_per_replica=1.0,
        window_seconds=5.0, cooldown_seconds=10.0,
    )
    fleet = Fleet.for_setup(
        prefillonly_engine_spec(), h100_setup,
        max_input_length=small_post_trace.max_request_tokens,
        num_replicas=2, autoscale=spec,
    )
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "crash", "replica": 0, "at": 5.0, "recover_at": 9.0},
        {"kind": "crash", "replica": 1, "at": 12.0, "recover_at": 15.0},
        {"kind": "crash", "replica": 0, "at": 20.0, "recover_at": 24.0},
    ]})
    requests = PoissonArrivalProcess(rate=5.0, seed=1).assign(
        list(small_post_trace.requests)
    )
    simulate_fleet(fleet, requests, faults=schedule)
    times = [event.time for event in fleet.scale_events]
    for earlier, later in zip(times, times[1:]):
        assert later - earlier >= spec.cooldown_seconds - 1e-9


# ------------------------------------------------ empty-results summaries


def test_empty_summaries_are_clean_zeros():
    """The satellite guard: every summary path handles empty inputs."""
    from repro.faults import ResilienceCounters
    from repro.simulation.metrics import (
        latency_cdf,
        percentile,
        summarize_finished,
        summarize_fleet,
        summarize_resilience,
        summarize_tiers,
    )

    assert percentile([], 99) == 0.0
    summary = summarize_finished([], [])
    assert summary.num_requests == 0 and summary.p99_latency == 0.0
    fleet = summarize_fleet([])
    assert fleet.mean_utilization == 0.0 and fleet.cache_hit_variance == 0.0
    assert fleet.utilization_per_replica == {}
    tiers = summarize_tiers([])
    assert tiers.tokens_total == 0 and tiers.tier_hit_rate == 0.0
    resilience = summarize_resilience(ResilienceCounters())
    assert resilience.mean_mttr_s == 0.0
    assert resilience.goodput_rps == 0.0 and resilience.goodput_ratio == 0.0
    assert latency_cdf([]) == []


def test_replica_reports_zero_request_run(h100_setup, small_post_trace):
    """A fleet that served nothing reports zeroed utilisation rows."""
    fleet = Fleet.for_setup(
        prefillonly_engine_spec(), h100_setup,
        max_input_length=small_post_trace.max_request_tokens, num_replicas=2,
    )
    rows = fleet.replica_reports(0.0)
    assert len(rows) == 2
    for row in rows:
        assert row["finished"] == 0
        assert row["utilization"] == 0.0
        assert row["token_hit_rate"] == 0.0
