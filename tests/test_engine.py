"""Tests for the engine spec and the simulated engine instance."""

import pytest

from repro.baselines import (
    chunked_prefill_spec,
    paged_attention_spec,
    pipeline_parallel_spec,
    tensor_parallel_spec,
)
from repro.core.engine import EngineInstance, prefillonly_engine_spec
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.interconnect import PCIE_GEN4
from repro.model.memory import PrefillMode
from repro.workloads.trace import Request, TokenSegment, TokenSequence


def make_request(request_id: int, num_tokens: int, *, user: str = "u0",
                 shared_content: int | None = None, shared_tokens: int = 0) -> Request:
    segments = []
    if shared_content is not None and shared_tokens > 0:
        segments.append(TokenSegment(shared_content, shared_tokens))
    remaining = num_tokens - shared_tokens
    if remaining > 0:
        segments.append(TokenSegment(1000 + request_id, remaining))
    return Request(request_id=request_id, user_id=user, sequence=TokenSequence(segments))


def make_instance(spec, model, gpu, *, mil: int = 20_000, interconnect=None) -> EngineInstance:
    return EngineInstance(spec, model, gpu, interconnect=interconnect, max_input_length=mil)


# ----------------------------------------------------------------- spec

def test_prefillonly_spec_defaults():
    spec = prefillonly_engine_spec()
    assert spec.prefill_mode is PrefillMode.HYBRID
    assert spec.scheduling_policy == "srjf-calibrated"
    assert spec.cpu_offload_gib == 0.0
    assert not spec.reserve_full_kv
    assert spec.gpus_per_instance == 1


def test_baseline_specs_use_fcfs_and_full_kv():
    for spec in (paged_attention_spec(), chunked_prefill_spec(),
                 tensor_parallel_spec(), pipeline_parallel_spec()):
        assert spec.scheduling_policy == "fcfs"
        assert spec.reserve_full_kv


def test_parallel_specs_occupy_two_gpus():
    assert tensor_parallel_spec().gpus_per_instance == 2
    assert pipeline_parallel_spec().gpus_per_instance == 2


def test_spec_with_overrides():
    spec = prefillonly_engine_spec().with_overrides(fairness_lambda=0.0)
    assert spec.fairness_lambda == 0.0
    assert spec.name == "prefillonly"


def test_invalid_spec_rejected():
    with pytest.raises(ConfigurationError):
        prefillonly_engine_spec().with_overrides(tensor_parallel=0)
    with pytest.raises(ConfigurationError):
        prefillonly_engine_spec().with_overrides(chunk_tokens=0)


# ----------------------------------------------------------- single engine

def test_submit_and_drain_single_request(llama_8b, l4_gpu):
    instance = make_instance(prefillonly_engine_spec(), llama_8b, l4_gpu)
    request = make_request(0, 8_000)
    assert instance.submit(request, now=0.0)
    instance.advance_to(0.0)
    assert instance.num_running == 1
    finished = instance.drain_until()
    assert len(finished) == 1
    record = finished[0]
    assert record.execution_time > 0
    assert record.finish_time >= record.start_time >= record.arrival_time
    assert instance.is_idle()


def test_request_beyond_mil_is_rejected(llama_8b, l4_gpu):
    instance = make_instance(prefillonly_engine_spec(), llama_8b, l4_gpu, mil=10_000)
    accepted = instance.submit(make_request(0, 15_000), now=0.0)
    assert not accepted
    assert len(instance.rejected_requests) == 1
    assert "maximum" in instance.rejected_requests[0].rejection_reason


def test_parallel_engine_without_interconnect_rejected(llama_8b, l4_gpu):
    with pytest.raises(ConfigurationError):
        make_instance(tensor_parallel_spec(), llama_8b, l4_gpu)


def test_infeasible_profile_run_raises(llama_70b, l4_gpu):
    with pytest.raises(CapacityError):
        make_instance(paged_attention_spec(), llama_70b, l4_gpu, mil=10_000)


def test_prefix_cache_hit_reduces_execution_time(llama_8b, l4_gpu):
    instance = make_instance(prefillonly_engine_spec(), llama_8b, l4_gpu)
    first = make_request(0, 12_000, shared_content=7, shared_tokens=11_000)
    second = make_request(1, 12_000, shared_content=7, shared_tokens=11_000)
    instance.submit(first, now=0.0)
    instance.advance_to(0.0)
    finished = instance.drain_until()
    instance.submit(second, now=finished[0].finish_time)
    instance.advance_to(finished[0].finish_time)
    finished2 = instance.drain_until()
    assert finished2[0].cached_tokens > 10_000
    assert finished2[0].execution_time < finished[0].execution_time / 3


def test_fcfs_engine_runs_in_arrival_order(llama_8b, l4_gpu):
    instance = make_instance(paged_attention_spec(), llama_8b, l4_gpu, mil=16_000)
    instance.submit(make_request(0, 12_000), now=0.0)
    instance.submit(make_request(1, 2_000), now=0.001)
    instance.advance_to(0.001)
    finished = instance.drain_until()
    assert [record.request_id for record in finished] == [0, 1]


def test_srjf_engine_runs_short_request_first(llama_8b, l4_gpu):
    spec = prefillonly_engine_spec(fairness_lambda=0.0)
    instance = make_instance(spec, llama_8b, l4_gpu)
    # Both requests are waiting before the engine starts working.
    instance.submit(make_request(0, 12_000), now=0.0)
    instance.submit(make_request(1, 2_000), now=0.0)
    instance.advance_to(0.0)
    finished = instance.drain_until()
    assert [record.request_id for record in finished] == [1, 0]


def test_pipeline_engine_overlaps_two_requests(llama_8b, l4_gpu):
    spec = pipeline_parallel_spec()
    instance = make_instance(spec, llama_8b, l4_gpu, interconnect=PCIE_GEN4, mil=16_000)
    instance.submit(make_request(0, 8_000, user="a"), now=0.0)
    instance.submit(make_request(1, 8_000, user="b"), now=0.0)
    instance.advance_to(0.0)
    finished = instance.drain_until()
    assert len(finished) == 2
    # With two stages, the second request starts before the first finishes.
    assert finished[1].start_time < finished[0].finish_time
    # And the makespan is shorter than running the two back to back.
    sequential = 2 * finished[0].execution_time
    assert finished[1].finish_time - finished[0].start_time < sequential


def test_engine_busy_time_tracks_utilisation(llama_8b, l4_gpu):
    instance = make_instance(prefillonly_engine_spec(), llama_8b, l4_gpu)
    instance.submit(make_request(0, 8_000), now=0.0)
    instance.advance_to(0.0)
    finished = instance.drain_until()
    assert instance.busy_time == pytest.approx(finished[0].execution_time, rel=1e-6)


def test_finished_request_latency_accounting(llama_8b, l4_gpu):
    instance = make_instance(prefillonly_engine_spec(), llama_8b, l4_gpu)
    instance.submit(make_request(0, 4_000), now=1.5)
    instance.advance_to(1.5)
    record = instance.drain_until()[0]
    assert record.arrival_time == 1.5
    assert record.latency == pytest.approx(record.queueing_time + record.execution_time)


def test_engine_cache_stats_exposed(llama_8b, l4_gpu):
    instance = make_instance(prefillonly_engine_spec(), llama_8b, l4_gpu)
    instance.submit(make_request(0, 8_000, shared_content=3, shared_tokens=7_000), now=0.0)
    instance.advance_to(0.0)
    instance.drain_until()
    stats = instance.kv.stats()
    assert stats.requests == 1
    assert stats.tokens_total == 8_000
