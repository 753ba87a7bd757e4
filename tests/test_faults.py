"""Fault injection & resilience: schedules, fleet failure lifecycle, metrics.

Covers the subsystem's contract end to end: typed config errors, schedule
compilation and seeded generation, crash/recover/slow/brownout/outage
semantics on a live fleet, request conservation under re-routing, warm
restore from the cluster store, and clean zeroed summaries for runs that
finish nothing (the all-crashed case).
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import format_fleet_report, format_resilience_report
from repro.cluster import Fleet
from repro.core.engine import prefillonly_engine_spec
from repro.errors import FaultError, FaultScheduleError, UnknownFaultError
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    fault_schedule_from_dict,
    generate_crash_schedule,
)
from repro.kvcache.manager import KVCacheManager
from repro.kvcache.offload import CPUOffloadStore
from repro.kvcache.tiers import ClusterPrefixStore, TieredPrefixStore, tier_config_from_dict
from repro.simulation.arrival import PoissonArrivalProcess
from repro.simulation.invariants import check_kv_structure
from repro.simulation.simulator import simulate_fleet


def build_fleet(setup, trace, *, num_replicas=2, tiers=False, **kwargs):
    tier_config = None
    if tiers:
        tier_config = tier_config_from_dict({"enabled": True, "tiers": {
            "host": {"capacity_gib": 1.0}, "cluster": {"capacity_gib": 4.0},
        }})
    return Fleet.for_setup(
        prefillonly_engine_spec(), setup,
        max_input_length=trace.max_request_tokens,
        num_replicas=num_replicas, tier_config=tier_config, **kwargs,
    )


def arrivals(trace, *, rate=4.0, seed=0):
    return PoissonArrivalProcess(rate=rate, seed=seed).assign(list(trace.requests))


# ------------------------------------------------------------ configuration


def test_unknown_fault_kind_lists_available_names():
    with pytest.raises(UnknownFaultError) as excinfo:
        fault_schedule_from_dict({"events": [{"kind": "crsh", "replica": 0, "at": 1.0}]})
    error = excinfo.value
    assert error.available == sorted(FAULT_KINDS)
    assert "faults.events[0].kind" in str(error)
    assert "crash" in str(error)
    assert isinstance(error, FaultError)


@pytest.mark.parametrize("config, fragment", [
    ({"events": [{"kind": "crash", "replica": 0}]}, "missing required key 'at'"),
    ({"events": [{"kind": "crash", "at": 1.0}]}, "missing required key 'replica'"),
    ({"events": [{"kind": "crash", "replica": -1, "at": 1.0}]}, "non-negative"),
    ({"events": [{"kind": "crash", "replica": 0, "at": 5.0, "recover_at": 5.0}]},
     "must be after"),
    ({"events": [{"kind": "slow", "replica": 0, "at": 1.0}]}, "duration"),
    ({"events": [{"kind": "outage", "at": 1.0, "duration": 0.0}]}, "duration"),
    ({"events": [{"kind": "crash", "replica": 0, "at": 1.0, "nope": 2}]},
     "unknown keys"),
    ({"bogus": True}, "unknown keys"),
    ({"warm_restore_blocks": "many"}, "warm_restore_blocks"),
    ({"generate": {"mtbf_s": 1.0, "mttr_s": 1.0, "horizon_s": 10.0}},
     "replicas"),
    ({"generate": {"mtbf_s": -1.0, "mttr_s": 1.0, "horizon_s": 10.0,
                   "replicas": 2}}, "mtbf_s"),
], ids=[
    "missing-at", "missing-replica", "negative-replica", "recover-before-crash",
    "slow-missing-duration", "zero-duration", "unknown-event-key",
    "unknown-top-key", "bad-warm-restore", "generate-needs-replicas",
    "generate-bad-mtbf",
])
def test_malformed_schedules_raise_typed_errors(config, fragment):
    with pytest.raises(FaultScheduleError) as excinfo:
        fault_schedule_from_dict(config)
    assert fragment in str(excinfo.value)
    assert excinfo.value.path.startswith("faults")


def test_schedule_compiles_windows_and_orders_events():
    schedule = fault_schedule_from_dict({
        "events": [
            {"kind": "outage", "at": 4.0, "duration": 2.0},
            {"kind": "slow", "replica": 1, "at": 1.0, "duration": 10.0,
             "multiplier": 3.0},
            {"kind": "crash", "replica": 0, "at": 1.0, "recover_at": 2.0},
        ],
    })
    assert [(event.time, event.kind) for event in schedule] == [
        (1.0, "slow"),
        (1.0, "crash"),
        (2.0, "recover"),
        (4.0, "outage"),
        (6.0, "outage-end"),
        (11.0, "slow-end"),
    ]
    assert [event.seq for event in schedule] == list(range(len(schedule)))
    # Equal-time events keep compile order: slow (entry 1) before crash (entry 2).
    at_one = [event.kind for event in schedule if event.time == 1.0]
    assert at_one == ["slow", "crash"]


def test_overlapping_same_kind_windows_are_rejected():
    """An inner window's end would silently cancel the outer one — refuse."""
    with pytest.raises(FaultScheduleError, match="overlapping 'brownout'"):
        fault_schedule_from_dict({"events": [
            {"kind": "brownout", "at": 1.0, "duration": 10.0, "multiplier": 4.0},
            {"kind": "brownout", "at": 3.0, "duration": 10.0, "multiplier": 2.0},
        ]})
    with pytest.raises(FaultScheduleError, match="on replica 0"):
        fault_schedule_from_dict({"events": [
            {"kind": "slow", "replica": 0, "at": 1.0, "duration": 5.0},
            {"kind": "slow", "replica": 0, "at": 2.0, "duration": 5.0},
        ]})
    # Same window on *different* replicas is not an overlap.
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "slow", "replica": 0, "at": 1.0, "duration": 5.0},
        {"kind": "slow", "replica": 1, "at": 2.0, "duration": 5.0},
    ]})
    assert len(schedule) == 4


def test_abutting_windows_close_before_opening():
    """Back-to-back windows work in either config order: at the shared
    boundary the first window's end fires before the second's start."""
    for entries in ([
        {"kind": "outage", "at": 1.0, "duration": 2.0},
        {"kind": "outage", "at": 3.0, "duration": 2.0},
    ], [
        {"kind": "outage", "at": 3.0, "duration": 2.0},
        {"kind": "outage", "at": 1.0, "duration": 2.0},
    ]):
        schedule = fault_schedule_from_dict({"events": entries})
        at_boundary = [event.kind for event in schedule if event.time == 3.0]
        assert at_boundary == ["outage-end", "outage"]


def test_slow_window_ends_on_a_draining_replica(h100_setup, small_post_trace):
    """A replica that starts draining mid-window must still get the reset."""
    fleet = build_fleet(h100_setup, small_post_trace)
    assert fleet.apply_fault(
        FaultEvent(time=1.0, kind="slow", replica=1, multiplier=3.0), 1.0
    )
    draining = fleet._active[1]
    # Keep the replica busy so the drain does not retire it instantly: the
    # user-id router round-robins new users, so the second user lands on
    # replica 1.
    requests = arrivals(small_post_trace)
    by_user = {request.user_id: request for request in requests}
    for request in list(by_user.values())[:2]:
        fleet.submit(request, 1.0)
    fleet.scale_down(2.0)
    assert draining.instance not in fleet.replicas
    assert draining.instance.slowdown == 3.0
    assert fleet.apply_fault(FaultEvent(time=3.0, kind="slow-end", replica=1), 3.0)
    assert draining.instance.slowdown == 1.0


def test_disabled_and_empty_schedules_are_inactive():
    assert not FaultSchedule([], enabled=True).active
    assert not FaultSchedule([FaultEvent(1.0, "crash", 0)], enabled=False).active
    assert FaultSchedule([FaultEvent(1.0, "crash", 0)]).active
    assert not fault_schedule_from_dict({"enabled": False, "events": [
        {"kind": "crash", "replica": 0, "at": 1.0},
    ]}).active


def test_generated_schedule_is_deterministic_and_alternates():
    kwargs = dict(num_replicas=3, mtbf_s=5.0, mttr_s=2.0, horizon_s=50.0, seed=9)
    first = generate_crash_schedule(**kwargs)
    second = generate_crash_schedule(**kwargs)
    assert first.events == second.events
    assert len(first) > 0
    different = generate_crash_schedule(**{**kwargs, "seed": 10})
    assert different.events != first.events
    # Per replica the stream must strictly alternate crash / recover.
    for replica in range(3):
        kinds = [event.kind for event in first if event.replica == replica]
        assert all(kind == ("crash" if i % 2 == 0 else "recover")
                   for i, kind in enumerate(kinds))


def test_generate_merges_with_explicit_events():
    schedule = fault_schedule_from_dict({
        "events": [{"kind": "brownout", "at": 1.0, "duration": 2.0}],
        "generate": {"mtbf_s": 5.0, "mttr_s": 2.0, "horizon_s": 30.0,
                     "seed": 3, "replicas": 2},
    })
    kinds = {event.kind for event in schedule}
    assert "brownout" in kinds and "crash" in kinds


# ------------------------------------------------------- crash / recover


def test_crash_reroutes_and_conserves_requests(h100_setup, small_post_trace):
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "crash", "replica": 0, "at": 2.0},
    ]})
    fleet = build_fleet(h100_setup, small_post_trace)
    requests = arrivals(small_post_trace)
    result = simulate_fleet(fleet, requests, faults=schedule)
    res = result.fleet.resilience
    assert res.num_crashes == 1
    assert res.num_recoveries == 0
    assert res.num_retried > 0
    # Conservation: every offered request finishes or is rejected exactly once.
    finished_ids = [record.request_id for record in result.finished]
    rejected_ids = [record.request_id for record in result.rejected]
    assert len(set(finished_ids)) == len(finished_ids)
    assert sorted(finished_ids + rejected_ids) == sorted(
        request.request_id for request in requests
    )
    # The crashed replica serves nothing after the crash.
    crashed = [
        replica for replica in fleet.all_replicas
        if replica not in fleet.replicas
    ]
    assert len(crashed) == 1


def test_crash_aborts_in_flight_leases(h100_setup, small_post_trace):
    """The dead replica's in-flight leases release their pins and scratch."""
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "crash", "replica": 0, "at": 2.0},
    ]})
    fleet = build_fleet(h100_setup, small_post_trace)
    result = simulate_fleet(fleet, arrivals(small_post_trace), faults=schedule)
    assert result.fleet.resilience.num_lost_in_flight > 0
    check_kv_structure(fleet)


def test_retried_requests_keep_their_original_arrival_time(h100_setup, small_post_trace):
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "crash", "replica": 0, "at": 2.0},
    ]})
    fleet = build_fleet(h100_setup, small_post_trace)
    requests = arrivals(small_post_trace)
    result = simulate_fleet(fleet, requests, faults=schedule)
    arrival_of = {request.request_id: request.arrival_time for request in requests}
    retried = set(fleet.retried_request_ids)
    assert retried
    for record in result.finished:
        if record.request_id in retried:
            assert record.arrival_time == pytest.approx(arrival_of[record.request_id])
            # Latency therefore spans the crash the request survived.
            assert record.finish_time > 2.0


def test_recover_rebuilds_and_measures_mttr(h100_setup, small_post_trace):
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "crash", "replica": 1, "at": 1.0, "recover_at": 4.5},
    ]})
    fleet = build_fleet(h100_setup, small_post_trace)
    result = simulate_fleet(fleet, arrivals(small_post_trace), faults=schedule)
    res = result.fleet.resilience
    assert res.num_crashes == 1 and res.num_recoveries == 1
    assert res.mean_mttr_s == pytest.approx(3.5)
    assert fleet.num_replicas == 2
    # The rebuild is a fresh instance under a new name.
    names = [row["replica"] for row in fleet.replica_reports(1e9)]
    assert len(names) == len(set(names)) == 3


def test_crash_recover_cycles_track_the_logical_slot(h100_setup, small_post_trace):
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "crash", "replica": 0, "at": 1.0, "recover_at": 2.0},
        {"kind": "crash", "replica": 0, "at": 3.0, "recover_at": 4.0},
        {"kind": "crash", "replica": 0, "at": 5.0, "recover_at": 6.0},
    ]})
    fleet = build_fleet(h100_setup, small_post_trace)
    result = simulate_fleet(fleet, arrivals(small_post_trace), faults=schedule)
    res = result.fleet.resilience
    # Every cycle must land: the logical slot follows the rebuilt instance.
    assert res.num_crashes == 3 and res.num_recoveries == 3
    assert res.num_faults_skipped == 0
    assert res.mean_mttr_s == pytest.approx(1.0)
    assert fleet.num_replicas == 2


def test_skipped_faults_are_logged_not_errors(h100_setup, small_post_trace):
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "crash", "replica": 7, "at": 1.0},     # no such replica
        {"kind": "recover", "replica": 1, "at": 2.0},   # never crashed
        {"kind": "outage", "at": 3.0, "duration": 1.0}, # no cluster store
    ]})
    fleet = build_fleet(h100_setup, small_post_trace)
    result = simulate_fleet(fleet, arrivals(small_post_trace), faults=schedule)
    res = result.fleet.resilience
    assert res.num_faults == 0
    assert res.num_faults_skipped == 4  # crash, recover, outage, outage-end
    assert all(not row["applied"] for row in res.fault_log)


def test_all_crashed_run_yields_clean_zeroed_summaries(h100_setup, small_post_trace):
    """The satellite guarantee: zero finished requests must not raise anywhere."""
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "crash", "replica": 0, "at": 0.0},
        {"kind": "crash", "replica": 1, "at": 0.0},
    ]})
    fleet = build_fleet(h100_setup, small_post_trace)
    requests = arrivals(small_post_trace)
    result = simulate_fleet(fleet, requests, faults=schedule)
    assert result.num_finished == 0
    assert result.summary.num_requests == 0
    assert result.summary.p99_latency == 0.0
    assert result.summary.mean_latency == 0.0
    assert len(result.shed) == len(requests)
    res = result.fleet.resilience
    assert res.num_unserved == len(requests)
    assert res.goodput_ratio == 0.0 and res.goodput_rps == 0.0
    assert result.fleet.mean_utilization == 0.0
    assert result.fleet.cache_hit_variance == 0.0
    # Reports render without raising on the empty run.
    assert "Resilience" in format_fleet_report(result)


# --------------------------------------------- slow / brownout / outage


def test_slow_node_stretches_service_times(h100_setup, small_post_trace):
    # FCFS with caching off pins the service times, so the multiplier is
    # exact (under SRJF the longer queue shifts hit rates and muddies it).
    spec = prefillonly_engine_spec().with_overrides(
        enable_prefix_caching=False, scheduling_policy="fcfs",
    )

    def run(schedule):
        fleet = Fleet.for_setup(
            spec, h100_setup,
            max_input_length=small_post_trace.max_request_tokens, num_replicas=1,
        )
        return simulate_fleet(fleet, arrivals(small_post_trace, rate=1.0),
                              faults=schedule)

    baseline = run(None)
    slowed = run(fault_schedule_from_dict({"events": [
        {"kind": "slow", "replica": 0, "at": 0.0, "duration": 1e6,
         "multiplier": 2.0},
    ]}))
    assert slowed.num_finished == baseline.num_finished
    assert slowed.summary.mean_execution_time == pytest.approx(
        2.0 * baseline.summary.mean_execution_time
    )


def test_slow_end_restores_normal_speed(h100_setup, small_post_trace):
    fleet = build_fleet(h100_setup, small_post_trace, num_replicas=1)
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "slow", "replica": 0, "at": 0.0, "duration": 0.5,
         "multiplier": 10.0},
    ]})
    simulate_fleet(fleet, arrivals(small_post_trace, rate=1.0), faults=schedule)
    assert fleet.replicas[0].slowdown == 1.0


def test_brownout_scales_store_transfer_times():
    store = CPUOffloadStore(capacity_bytes=1 << 20, block_bytes=1 << 10)
    base = store.transfer_time(4)
    store.cost_multiplier = 4.0
    assert store.transfer_time(4) == pytest.approx(4.0 * base)
    cluster = ClusterPrefixStore(capacity_bytes=1 << 20, block_bytes=1 << 10)
    base = cluster.transfer_time(4)
    cluster.cost_multiplier = 2.0
    assert cluster.transfer_time(4) == pytest.approx(2.0 * base)


def test_brownout_applies_fleet_wide_and_to_new_replicas(h100_setup, small_post_trace):
    fleet = build_fleet(h100_setup, small_post_trace, tiers=True)
    fleet.apply_fault(FaultEvent(time=1.0, kind="brownout", multiplier=4.0), 1.0)
    assert fleet.cluster_store.cost_multiplier == 4.0
    for replica in fleet.replicas:
        assert replica.kv.tiers.host.cost_multiplier == 4.0
    fleet.scale_up(2.0)
    assert fleet.replicas[-1].kv.tiers.host.cost_multiplier == 4.0
    fleet.apply_fault(FaultEvent(time=3.0, kind="brownout-end"), 3.0)
    assert fleet.cluster_store.cost_multiplier == 1.0
    assert all(r.kv.tiers.host.cost_multiplier == 1.0 for r in fleet.replicas)


def test_cluster_store_outage_hides_contents_and_refuses_writes():
    store = ClusterPrefixStore(capacity_bytes=1 << 20, block_bytes=1 << 10)
    manager = KVCacheManager(4 * 16, block_size=16, tiers=TieredPrefixStore(
        replica="r0", block_size=16, block_bytes=1 << 10, cluster=store))
    watched = {1, 2, 3}
    assert manager.take_changes(watched) is None  # starts watching
    store.publish("r0", [1, 2, 3])
    assert manager.take_changes(watched) == {1, 2, 3}
    store.set_available(False)
    # The toggle changes every tier lookup: the manager asks for a re-derive.
    assert manager.take_changes(watched) is None
    assert manager.take_changes(watched) == set()
    assert 1 not in store
    assert store.match_length([1, 2, 3]) == 0
    assert store.owner_of(1) is None
    assert store.resident_hashes() == []
    assert not store.fetch_block("r1", 1)
    stored, _ = store.publish("r1", [9])
    assert stored == 0 and 9 not in store._blocks
    store.set_available(True)
    assert 1 in store and store.match_length([1, 2, 3]) == 3
    assert 9 not in store  # the outage-time write was lost, not buffered


# ------------------------------------------------------------ warm restore


def test_warm_restore_stages_cluster_blocks_into_host(h100_setup, small_post_trace):
    fleet = build_fleet(h100_setup, small_post_trace, tiers=True)
    fleet.cluster_store.publish("elsewhere", list(range(100, 140)))
    state = fleet._active[0]
    tiers = state.instance.kv.tiers
    fleet.warm_restore_blocks = 16
    restored = fleet._warm_restore(state)
    assert restored == 16
    # The hottest (MRU) cluster blocks were chosen and now sit in the host tier.
    assert all(h in tiers.host for h in range(124, 140))
    # The cluster copies stay: they belong to their publisher.
    assert all(h in fleet.cluster_store for h in range(124, 140))


def test_recovery_warm_restores_and_serves_warm_hits(h100_setup):
    """Acceptance pin: a recovered replica serves tier hits instead of cold
    recompute — warm-restore hit rate > 0 on a shared-prefix chaos run."""
    from repro.workloads.registry import get_workload

    from repro.simulation.routing import make_router
    from repro.workloads.registry import get_workload

    trace = get_workload("post-recommendation", num_users=4, posts_per_user=16, seed=5)
    # A tight GPU budget and small host tier force demotions all the way into
    # the cluster store, so the crash leaves something to warm-restore from;
    # least-loaded routing makes sure the rebuilt replica receives traffic.
    spec = prefillonly_engine_spec().with_overrides(kv_capacity_tokens=20_000)
    fleet = Fleet.for_setup(
        spec, h100_setup,
        max_input_length=trace.max_request_tokens, num_replicas=2,
        router=make_router("least-loaded", 2),
        tier_config=tier_config_from_dict({
            "enabled": True, "promotion": "always",
            "tiers": {"host": {"capacity_gib": 0.5},
                      "cluster": {"capacity_gib": 16.0}},
        }),
    )
    schedule = fault_schedule_from_dict({
        "warm_restore_blocks": 4096,
        "events": [{"kind": "crash", "replica": 0, "at": 6.0, "recover_at": 7.0}],
    })
    result = simulate_fleet(fleet, arrivals(trace, rate=6.0), faults=schedule)
    res = result.fleet.resilience
    assert res.num_recoveries == 1
    assert res.warm_restored_blocks > 0
    assert res.warm_restore_hit_rate > 0.0


# ------------------------------------------------------------- determinism


def test_chaos_runs_are_reproducible(h100_setup, small_post_trace):
    schedule = fault_schedule_from_dict({
        "events": [
            {"kind": "crash", "replica": 0, "at": 1.0, "recover_at": 4.0},
            {"kind": "slow", "replica": 1, "at": 0.5, "duration": 3.0,
             "multiplier": 3.0},
            {"kind": "brownout", "at": 0.2, "duration": 5.0, "multiplier": 4.0},
            {"kind": "outage", "at": 2.0, "duration": 1.0},
        ],
    })

    def run():
        fleet = build_fleet(h100_setup, small_post_trace, tiers=True)
        return simulate_fleet(fleet, arrivals(small_post_trace), faults=schedule)

    first, second = run(), run()
    assert first.summary == second.summary
    assert first.fleet == second.fleet
    assert first.cache_stats == second.cache_stats
    assert [r.request_id for r in first.finished] == [
        r.request_id for r in second.finished
    ]
    assert first.num_events == second.num_events


def test_fault_events_count_as_processed_events(h100_setup, small_post_trace):
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "brownout", "at": 0.5, "duration": 1.0},
    ]})
    baseline = simulate_fleet(
        build_fleet(h100_setup, small_post_trace),
        arrivals(small_post_trace),
    )
    chaos = simulate_fleet(
        build_fleet(h100_setup, small_post_trace),
        arrivals(small_post_trace), faults=schedule,
    )
    # A pure brownout changes no scheduling decision on an untired fleet,
    # so the only delta is the two delivered fault events.
    assert chaos.num_events == baseline.num_events + 2


def test_resilience_report_renders(h100_setup, small_post_trace):
    schedule = fault_schedule_from_dict({"events": [
        {"kind": "crash", "replica": 0, "at": 1.0, "recover_at": 3.0},
    ]})
    fleet = build_fleet(h100_setup, small_post_trace)
    result = simulate_fleet(fleet, arrivals(small_post_trace), faults=schedule)
    text = format_resilience_report(result.fleet.resilience)
    assert "goodput" in text and "Fault log" in text
    assert "crash" in text and "recover" in text
