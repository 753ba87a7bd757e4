"""Tests for the cluster fleet layer (replicas, admission, autoscaling)."""

import pytest

from repro.cluster import AdmissionPolicy, Fleet, ReplicaSpec
from repro.baselines.registry import all_engine_specs
from repro.core.engine import prefillonly_engine_spec
from repro.errors import ConfigurationError, ScenarioSpecError
from repro.hardware.cluster import HARDWARE_SETUPS, ClusterSpec
from repro.model.config import get_model
from repro.simulation.arrival import PoissonArrivalProcess, UniformArrivalProcess
from repro.simulation.server import ServingSystem
from repro.simulation.simulator import simulate, simulate_fleet
from repro.spec.core import from_dict
from repro.spec.models import AutoscaleSpec
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def tiny_trace():
    return get_workload("post-recommendation", num_users=4, posts_per_user=6, seed=7)


def build_fleet(setup, trace, **kwargs):
    return Fleet.for_setup(
        prefillonly_engine_spec(), setup,
        max_input_length=trace.max_request_tokens, **kwargs,
    )


def arrivals(trace, rate=3.0):
    return UniformArrivalProcess(rate=rate).assign(list(trace.requests))


def autoscale(**fields) -> AutoscaleSpec:
    return from_dict(AutoscaleSpec, fields)


# ------------------------------------------------------------- construction


def test_fleet_requires_at_least_one_replica(h100_setup, tiny_trace):
    with pytest.raises(ConfigurationError):
        Fleet([], get_model(h100_setup.model_name),
              max_input_length=tiny_trace.max_request_tokens)


def test_for_setup_defaults_to_one_replica_per_gpu(h100_setup, tiny_trace):
    fleet = build_fleet(h100_setup, tiny_trace)
    assert fleet.num_replicas == h100_setup.cluster.num_gpus
    assert [r.name for r in fleet.replicas] == ["prefillonly-0", "prefillonly-1"]


def test_heterogeneous_replica_specs(h100_setup, tiny_trace):
    spec = prefillonly_engine_spec()
    model = get_model("llama-3.1-8b")
    replicas = [
        ReplicaSpec(engine=spec, gpu=h100_setup.cluster.gpu),
        ReplicaSpec(engine=spec.with_overrides(name="prefillonly-small",
                                               chunk_tokens=1024),
                    gpu=h100_setup.cluster.gpu),
    ]
    fleet = Fleet(replicas, model, max_input_length=tiny_trace.max_request_tokens)
    assert fleet.num_replicas == 2
    assert fleet.replicas[1].spec.chunk_tokens == 1024


# -------------------------------------------------- N=1 routing equivalence


def test_single_replica_fleet_matches_single_serving_system(h100_setup, tiny_trace):
    """A 1-replica fleet must reproduce a 1-instance ServingSystem exactly."""
    spec = prefillonly_engine_spec()
    model = get_model(h100_setup.model_name)
    cluster = ClusterSpec(gpu=h100_setup.cluster.gpu, num_gpus=1,
                          interconnect=h100_setup.cluster.interconnect)
    system = ServingSystem(spec, model, cluster,
                           max_input_length=tiny_trace.max_request_tokens)
    single = simulate(system, arrivals(tiny_trace))

    fleet = build_fleet(h100_setup, tiny_trace, num_replicas=1)
    fleet_result = simulate_fleet(fleet, arrivals(tiny_trace))

    key = lambda record: record.request_id  # noqa: E731
    assert sorted(fleet_result.finished, key=key) == sorted(single.finished, key=key)
    assert fleet_result.summary == single.summary


def test_two_replica_fleet_matches_two_instance_serving_system(h100_setup, tiny_trace):
    """User-id routing over N replicas matches the seed ServingSystem layout."""
    system = ServingSystem.for_setup(
        prefillonly_engine_spec(), h100_setup,
        max_input_length=tiny_trace.max_request_tokens,
    )
    single = simulate(system, arrivals(tiny_trace))

    fleet = build_fleet(h100_setup, tiny_trace, num_replicas=2)
    fleet_result = simulate_fleet(fleet, arrivals(tiny_trace))

    key = lambda record: record.request_id  # noqa: E731
    assert sorted(fleet_result.finished, key=key) == sorted(single.finished, key=key)


# ------------------------------------------------ the serving-system preset


def test_serving_system_is_the_for_setup_fleet():
    """ServingSystem builds the replicas Fleet.for_setup builds, on every layout."""
    mil = 2_048  # servable by every engine on every setup
    for spec in all_engine_specs():
        for setup in HARDWARE_SETUPS.values():
            system = ServingSystem.for_setup(spec, setup, max_input_length=mil)
            fleet = Fleet.for_setup(spec, setup, max_input_length=mil)
            # (key, replica name, ReplicaSpec(engine, gpu, interconnect)).
            assert system.shard_manifest() == fleet.shard_manifest()
            assert type(system.router) is type(fleet.router)
            assert system.instances == system.replicas
            assert system.num_instances == fleet.num_replicas
            if spec.gpus_per_instance > 1:
                cluster = ClusterSpec(gpu=setup.cluster.gpu,
                                      num_gpus=spec.gpus_per_instance + 1,
                                      interconnect=setup.cluster.interconnect)
                with pytest.raises(ConfigurationError):
                    ServingSystem(spec, get_model(setup.model_name), cluster,
                                  max_input_length=mil)


# --------------------------------------------------------- admission control


def test_admission_control_sheds_and_accounts(h100_setup, tiny_trace):
    fleet = build_fleet(h100_setup, tiny_trace, num_replicas=2, max_queue_depth=2)
    requests = PoissonArrivalProcess(rate=50.0, seed=1).assign(list(tiny_trace.requests))
    result = simulate_fleet(fleet, requests)

    assert result.num_shed > 0
    # Every request is accounted for exactly once: finished, or rejected
    # (sheds are a subset of rejections).
    assert result.num_finished + result.num_rejected == len(tiny_trace)
    assert len(result.shed) == fleet.num_shed
    reached = sum(
        len(replica.finished_requests) + len(replica.rejected_requests)
        for replica in fleet.all_replicas
    )
    assert reached + fleet.num_shed == fleet.stats.num_submitted
    for record in result.shed:
        assert record.rejected
        assert record.rejection_reason.startswith("admission control:")
    assert result.fleet.num_shed == result.num_shed


def test_no_admission_policy_admits_everything(h100_setup, tiny_trace):
    fleet = build_fleet(h100_setup, tiny_trace, num_replicas=2)
    requests = PoissonArrivalProcess(rate=50.0, seed=1).assign(list(tiny_trace.requests))
    result = simulate_fleet(fleet, requests)
    assert result.num_shed == 0
    assert result.num_finished == len(tiny_trace)


def test_queue_depth_admission_validation():
    with pytest.raises(ConfigurationError):
        AdmissionPolicy(0)


def test_admission_sheds_at_the_bound_and_not_below():
    """A request is shed once the least-loaded queue holds max_queue_depth
    requests, with a reason naming the bound; one slot short admits it."""
    policy = AdmissionPolicy(2)
    assert policy.admit(None, [2, 3], 0.0) == (
        "admission control: every replica has at least 2 requests waiting"
    )
    assert policy.admit(None, [1, 3], 0.0) is None
    assert policy.admit(None, [], 0.0) is None


# ------------------------------------------------------------- autoscaling


def test_autoscaler_scales_up_under_overload(h100_setup, tiny_trace):
    spec = autoscale(
        min_replicas=1, max_replicas=4,
        scale_up_rps_per_replica=1.5,
        window_seconds=2.0, cooldown_seconds=3.0,
    )
    fleet = build_fleet(h100_setup, tiny_trace, num_replicas=1, autoscale=spec)
    result = simulate_fleet(fleet, arrivals(tiny_trace, rate=4.0))
    assert fleet.stats.num_scale_ups >= 1
    assert fleet.stats.peak_replicas > 1
    assert result.num_finished == len(tiny_trace)
    assert result.fleet.scale_events[0]["direction"] == "up"


def test_autoscaler_hysteresis_no_flapping_under_constant_load(h100_setup, tiny_trace):
    """Constant load inside the hysteresis band must not cause oscillation."""
    spec = autoscale(
        min_replicas=1, max_replicas=4,
        scale_up_rps_per_replica=3.0,
        window_seconds=2.0, cooldown_seconds=1.0,
    )
    fleet = build_fleet(h100_setup, tiny_trace, num_replicas=2, autoscale=spec)
    # 4 rps over 2 replicas = 2 rps/replica: inside the (1.5, 3.0) band.
    result = simulate_fleet(fleet, arrivals(tiny_trace, rate=4.0))
    in_flight_events = [
        event for event in fleet.scale_events
        if event.time < max(r.arrival_time for r in tiny_trace.requests)
    ]
    assert in_flight_events == []
    assert result.num_finished == len(tiny_trace)


def test_autoscaler_scales_down_when_idle(h100_setup, tiny_trace):
    spec = autoscale(
        min_replicas=1, max_replicas=4,
        scale_up_rps_per_replica=100.0,
        window_seconds=1.0, cooldown_seconds=0.5,
    )
    fleet = build_fleet(h100_setup, tiny_trace, num_replicas=3, autoscale=spec)
    result = simulate_fleet(fleet, arrivals(tiny_trace, rate=1.0))
    assert fleet.stats.num_scale_downs >= 1
    # Draining preserves every completion record.
    assert result.num_finished == len(tiny_trace)


def test_autoscaler_threshold_validation():
    """The autoscaler's bounds are checked once, by the spec layer."""
    with pytest.raises(ScenarioSpecError, match="autoscale.scale_up_rps_per_replica"):
        autoscale(scale_up_rps_per_replica=0.0)
    with pytest.raises(ScenarioSpecError, match="autoscale.min_replicas"):
        autoscale(min_replicas=0, scale_up_rps_per_replica=1.0)
    # NaN passes every range comparison, so it needs its own check.
    with pytest.raises(ScenarioSpecError, match="autoscale.window_seconds"):
        autoscale(scale_up_rps_per_replica=2.0, window_seconds=float("nan"))
    with pytest.raises(ScenarioSpecError, match="autoscale.cooldown_seconds"):
        autoscale(scale_up_rps_per_replica=2.0, cooldown_seconds=float("nan"))


def test_manual_scale_down_drains_without_losing_requests(h100_setup, tiny_trace):
    fleet = build_fleet(h100_setup, tiny_trace, num_replicas=3)
    requests = arrivals(tiny_trace, rate=100.0)
    for request in requests[:6]:
        fleet.submit(request, request.arrival_time)
    fleet.scale_down(now=1.0, reason="test")
    assert fleet.num_replicas == 2
    while fleet.next_event_time() is not None:
        fleet.advance_to(fleet.next_event_time())
    assert len(fleet.finished_requests()) == 6
    # Retirement never orphans an in-flight execution lease: every replica
    # the fleet ever ran ends with zero outstanding leases.
    for state in fleet._all_serving() + fleet._retired:
        assert state.instance.kv.num_active_leases == 0
    with pytest.raises(ConfigurationError):
        fleet.scale_down(now=2.0)
        fleet.scale_down(now=2.0)


def test_scale_down_flushes_radix_tree_into_the_offload_store(h100_setup, tiny_trace):
    """A retiring replica's cached prefixes flush into its offload store.

    With a CPU offload budget the drain stores the radix tree into the
    replica's offload store (visible in its stats) instead of dropping it.
    """
    from repro.core.engine import prefillonly_engine_spec

    spec = prefillonly_engine_spec(cpu_offload_gib=4.0)
    fleet = Fleet.for_setup(
        spec, h100_setup,
        max_input_length=tiny_trace.max_request_tokens, num_replicas=2,
    )
    requests = arrivals(tiny_trace, rate=100.0)
    for request in requests:
        fleet.submit(request, request.arrival_time)
    while fleet.next_event_time() is not None:
        fleet.advance_to(fleet.next_event_time())
    victim = fleet.replicas[1]
    cached_blocks = victim.kv.num_cached_tokens // victim.kv.block_size
    assert cached_blocks > 0
    stored_before = victim.kv.stats().offload_stats["stored_blocks"]
    fleet.scale_down(now=1000.0, reason="test")
    assert fleet._retired and fleet._retired[0].instance is victim
    stats = victim.kv.stats().offload_stats
    # Every radix-tree block not already offloaded was flushed on retirement.
    assert stats["stored_blocks"] > stored_before
    assert victim.kv.num_active_leases == 0


# ------------------------------------------------------------ fleet metrics


def test_fleet_summary_metrics(h100_setup, tiny_trace):
    fleet = build_fleet(h100_setup, tiny_trace, num_replicas=2)
    result = simulate_fleet(fleet, arrivals(tiny_trace))
    summary = result.fleet
    assert summary.num_replicas == 2
    assert set(summary.utilization_per_replica) == {"prefillonly-0", "prefillonly-1"}
    assert all(0.0 <= u <= 1.0 for u in summary.utilization_per_replica.values())
    assert summary.cache_hit_variance >= 0.0
    assert summary.num_shed == 0
    assert result.cache_stats and {"instance", "token_hit_rate"} <= set(result.cache_stats[0])


def test_fleet_report_formatting(h100_setup, tiny_trace):
    from repro.analysis.reporting import format_fleet_report

    fleet = build_fleet(h100_setup, tiny_trace, num_replicas=2)
    result = simulate_fleet(fleet, arrivals(tiny_trace))
    report = format_fleet_report(result)
    assert "Fleet summary" in report
    assert "prefillonly-0" in report
    assert "throughput" in report
