"""Tests for the analytical memory model (the Figure 3 / Table 2 substrate)."""

import pytest

from repro.model.config import LLAMA_3_1_8B, QWEN_32B_FP8
from repro.model.memory import MemoryModel, PrefillMode


@pytest.fixture(scope="module")
def memory():
    return MemoryModel(LLAMA_3_1_8B)


def test_weight_bytes_shard_with_parallelism(memory):
    full = memory.weight_bytes()
    assert memory.weight_bytes(tensor_parallel=2) == pytest.approx(full / 2)
    assert memory.weight_bytes(pipeline_parallel=2) == pytest.approx(full / 2)
    assert memory.weight_bytes(tensor_parallel=2, pipeline_parallel=2) == pytest.approx(full / 4)


def test_kv_cache_scales_with_tokens_and_layers(memory):
    one_layer = memory.kv_cache_bytes_one_layer(1000)
    all_layers = memory.kv_cache_bytes(1000)
    assert all_layers == pytest.approx(one_layer * LLAMA_3_1_8B.num_layers)
    assert memory.kv_cache_bytes(2000) == pytest.approx(2 * all_layers)


def test_mlp_spike_dominates_activation_profile(memory):
    """The paper's core observation: MLP intermediates dwarf one-layer KV."""
    profile = memory.activation_profile()
    one_layer_kv = memory.kv_cache_bytes_one_layer(1)
    assert profile.mlp_peak_bytes > 10 * one_layer_kv


def test_full_mode_activation_scales_with_tokens(memory):
    small = memory.activation_peak_bytes(1_000, mode=PrefillMode.FULL)
    large = memory.activation_peak_bytes(10_000, mode=PrefillMode.FULL)
    assert large == pytest.approx(10 * small)


def test_chunked_mode_activation_bounded_by_chunk(memory):
    bounded = memory.activation_peak_bytes(100_000, mode=PrefillMode.CHUNKED, chunk_tokens=2048)
    unbounded = memory.activation_peak_bytes(100_000, mode=PrefillMode.FULL)
    assert bounded < unbounded / 10
    same_as_chunk = memory.activation_peak_bytes(2048, mode=PrefillMode.FULL)
    assert bounded == pytest.approx(same_as_chunk)


def test_hybrid_mode_between_full_and_chunked(memory):
    tokens = 32_768
    full = memory.activation_peak_bytes(tokens, mode=PrefillMode.FULL)
    hybrid = memory.activation_peak_bytes(tokens, mode=PrefillMode.HYBRID, chunk_tokens=2048)
    chunked = memory.activation_peak_bytes(tokens, mode=PrefillMode.CHUNKED, chunk_tokens=2048)
    assert chunked < hybrid < full


def test_hybrid_breakdown_keeps_only_one_layer_of_kv(memory):
    """Hybrid prefilling keeps one layer of a 32k-token request's KV live."""
    full_kv = memory.kv_cache_bytes(32_768)
    assert memory.kv_cache_bytes_one_layer(32_768) == pytest.approx(
        full_kv / LLAMA_3_1_8B.num_layers)


def test_full_breakdown_keeps_all_kv(memory):
    """A full prefill keeps every layer of its pipeline stage's KV live."""
    full_kv = memory.kv_cache_bytes(32_768)
    layers = LLAMA_3_1_8B.num_layers
    assert memory.kv_cache_bytes(32_768, num_layers=layers) == pytest.approx(full_kv)
    assert memory.kv_cache_bytes(32_768, num_layers=layers // 2) == pytest.approx(full_kv / 2)


def test_hybrid_reduces_peak_memory_for_long_prefill(memory):
    """Figure 3: hybrid prefilling shaves the MLP spikes off the peak."""
    tokens = 32_768
    full_peak = memory.peak_from_trace(
        memory.prefill_memory_trace(tokens, mode=PrefillMode.FULL)
    )
    hybrid_peak = memory.peak_from_trace(
        memory.prefill_memory_trace(tokens, mode=PrefillMode.HYBRID, retain_kv_layers=1)
    )
    saved_gib = (full_peak - hybrid_peak) / (1 << 30)
    assert saved_gib > 1.0  # the paper reports ~2 GB at 32k tokens


def test_memory_trace_is_never_below_weights(memory):
    trace = memory.prefill_memory_trace(8192, mode=PrefillMode.FULL)
    floor = memory.weight_bytes()
    assert all(value >= floor for _, value in trace)
    assert trace[0][0] == 0.0
    assert trace[-1][0] == 1.0


def test_tensor_parallel_shards_activations():
    memory = MemoryModel(QWEN_32B_FP8)
    full = memory.activation_peak_bytes(10_000, mode=PrefillMode.FULL)
    sharded = memory.activation_peak_bytes(10_000, mode=PrefillMode.FULL, tensor_parallel=2)
    # The residual stream is replicated; projections and MLP are sharded.
    assert full / 2 < sharded < full


def test_unknown_mode_rejected(memory):
    with pytest.raises(ValueError):
        memory.activation_peak_bytes(100, mode="not-a-mode")  # type: ignore[arg-type]
