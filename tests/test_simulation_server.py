"""Tests for the serving-system wrapper (instance layout, routing integration)."""

import pytest

from repro.baselines import pipeline_parallel_spec, tensor_parallel_spec
from repro.core.engine import prefillonly_engine_spec
from repro.errors import SimulationError
from repro.simulation.arrival import UniformArrivalProcess
from repro.simulation.routing import LeastLoadedRouter
from repro.simulation.server import ServingSystem
from repro.simulation.simulator import simulate
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def tiny_trace():
    return get_workload("post-recommendation", num_users=3, posts_per_user=4, seed=11)


def build(spec, setup, trace, **kwargs):
    return ServingSystem.for_setup(spec, setup, max_input_length=trace.max_request_tokens,
                                   **kwargs)


def test_instances_are_named_uniquely(h100_setup, tiny_trace):
    system = build(prefillonly_engine_spec(), h100_setup, tiny_trace)
    names = [instance.name for instance in system.instances]
    assert names == ["prefillonly-0", "prefillonly-1"]


def test_max_input_length_exposed(h100_setup, tiny_trace):
    system = build(prefillonly_engine_spec(), h100_setup, tiny_trace)
    assert system.max_input_length == tiny_trace.max_request_tokens


def test_queue_depths_reflect_submissions(h100_setup, tiny_trace):
    system = build(prefillonly_engine_spec(), h100_setup, tiny_trace)
    requests = list(tiny_trace)
    first = requests[0]
    second = next(r for r in requests[1:] if r.user_id == first.user_id)
    first.arrival_time = second.arrival_time = 0.0
    # A submit starts the request at once on its idle instance ...
    system.submit(first, now=0.0)
    assert not system.is_idle()
    assert system.queue_depths() == [0, 0]
    # ... so the same user's next request waits behind it.
    system.submit(second, now=0.0)
    assert sorted(system.queue_depths()) == [0, 1]


def test_custom_router_is_used(h100_setup, tiny_trace):
    system = build(prefillonly_engine_spec(), h100_setup, tiny_trace,
                   router=LeastLoadedRouter(2))
    requests = UniformArrivalProcess(rate=100.0).assign(list(tiny_trace))
    result = simulate(system, requests)
    assert result.num_finished == len(tiny_trace)
    # Least-loaded routing spreads one user's requests over both instances,
    # unlike the default user-id routing.
    instances_per_user: dict[str, set] = {}
    for record in result.finished:
        instances_per_user.setdefault(record.user_id, set()).add(record.instance_name)
    assert any(len(instances) > 1 for instances in instances_per_user.values())


def test_parallel_engines_share_interconnect_from_setup(h100_setup, tiny_trace):
    for spec in (tensor_parallel_spec(), pipeline_parallel_spec()):
        system = build(spec, h100_setup, tiny_trace)
        assert system.num_instances == 1
        assert system.instances[0].spec.gpus_per_instance == 2


def test_simulator_event_guard(h100_setup, tiny_trace):
    system = build(prefillonly_engine_spec(), h100_setup, tiny_trace)
    requests = UniformArrivalProcess(rate=10.0).assign(list(tiny_trace))
    with pytest.raises(SimulationError):
        simulate(system, requests, max_events=2)


def test_simulator_time_guard(h100_setup, tiny_trace):
    system = build(prefillonly_engine_spec(), h100_setup, tiny_trace)
    requests = UniformArrivalProcess(rate=10.0).assign(list(tiny_trace))
    # Push one arrival beyond the time limit to trigger the guard.
    requests[-1].arrival_time = 1e9
    with pytest.raises(SimulationError):
        simulate(system, sorted(requests, key=lambda r: r.arrival_time),
                 max_simulated_seconds=1e6)


def test_summary_counts_match_trace(h100_setup, tiny_trace):
    system = build(prefillonly_engine_spec(), h100_setup, tiny_trace)
    requests = UniformArrivalProcess(rate=5.0).assign(list(tiny_trace))
    result = simulate(system, requests)
    assert result.summary.num_requests == len(tiny_trace)
    assert result.summary.num_rejected == 0
    assert result.engine_name == "prefillonly"
