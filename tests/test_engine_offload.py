"""Tests for the §9 extension: offloading suffix KV to CPU instead of discarding."""

import pytest

from repro.core.engine import EngineInstance, prefillonly_engine_spec
from repro.workloads.trace import Request, TokenSegment, TokenSequence


def make_request(request_id: int, *, shared_tokens: int, unique_tokens: int,
                 user: str = "u0") -> Request:
    segments = [TokenSegment(7, shared_tokens), TokenSegment(1000 + request_id, unique_tokens)]
    return Request(request_id=request_id, user_id=user, sequence=TokenSequence(segments))


def offload_spec(cpu_offload_gib: float = 64.0):
    return prefillonly_engine_spec(cpu_offload_gib=cpu_offload_gib)


@pytest.fixture()
def offload_instance(llama_8b, l4_gpu):
    # A deliberately large MIL so the GPU KV budget is small and the shared
    # prefix overflows into the offload store.
    return EngineInstance(offload_spec(), llama_8b, l4_gpu, max_input_length=120_000,
                          name="offload-0")


def test_offload_store_is_wired_when_policy_requests_it(offload_instance):
    assert offload_instance.kv._offload is not None  # noqa: SLF001 - white-box check


def test_no_offload_store_for_default_policy(llama_8b, l4_gpu):
    instance = EngineInstance(prefillonly_engine_spec(), llama_8b, l4_gpu,
                              max_input_length=120_000)
    assert instance.kv._offload is None  # noqa: SLF001


def test_offloaded_prefix_accelerates_repeat_requests(offload_instance):
    """The second request over the same long prefix benefits from host-offloaded KV."""
    instance = offload_instance
    gpu_budget = instance.kv.capacity_tokens
    shared = gpu_budget + 20_000  # guaranteed to overflow the GPU prefix cache
    first = make_request(0, shared_tokens=shared, unique_tokens=512)
    second = make_request(1, shared_tokens=shared, unique_tokens=512)

    instance.submit(first, now=0.0)
    instance.advance_to(0.0)
    cold = instance.drain_until()[0]
    finish = cold.finish_time

    instance.submit(second, now=finish)
    instance.advance_to(finish)
    warm = instance.drain_until()[0]

    # The warm request sees more cached tokens than the GPU alone could hold ...
    assert warm.cached_tokens > gpu_budget
    # ... and is therefore much faster than the cold one.
    assert warm.execution_time < cold.execution_time / 2


def test_discard_policy_caps_hits_at_gpu_budget(llama_8b, l4_gpu):
    """Without offloading, repeat requests can only hit what fits on the GPU."""
    instance = EngineInstance(prefillonly_engine_spec(), llama_8b, l4_gpu,
                              max_input_length=120_000)
    gpu_budget = instance.kv.capacity_tokens
    shared = gpu_budget + 20_000
    first = make_request(0, shared_tokens=shared, unique_tokens=512)
    second = make_request(1, shared_tokens=shared, unique_tokens=512)
    instance.submit(first, now=0.0)
    instance.advance_to(0.0)
    finish = instance.drain_until()[0].finish_time
    instance.submit(second, now=finish)
    instance.advance_to(finish)
    warm = instance.drain_until()[0]
    assert warm.cached_tokens <= gpu_budget


def test_offload_load_time_is_charged(offload_instance):
    """Streaming KV back from host memory is not free: execution includes transfer time."""
    instance = offload_instance
    gpu_budget = instance.kv.capacity_tokens
    shared = gpu_budget + 40_000
    first = make_request(0, shared_tokens=shared, unique_tokens=256)
    second = make_request(1, shared_tokens=shared, unique_tokens=256)
    instance.submit(first, now=0.0)
    instance.advance_to(0.0)
    finish = instance.drain_until()[0].finish_time
    instance.submit(second, now=finish)
    instance.advance_to(finish)
    warm = instance.drain_until()[0]
    # Offloaded tokens are streamed over PCIe (~25 GB/s), so the warm request
    # still takes a measurable fraction of a second.
    offloaded_tokens = warm.cached_tokens - gpu_budget
    assert offloaded_tokens > 0
    expected_transfer = (
        offloaded_tokens * instance.model.kv_bytes_per_token / 25e9
    )
    assert warm.execution_time > expected_transfer * 0.5
