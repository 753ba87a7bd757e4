"""Memoized analytic models must be bit-identical to the unmemoized paths.

The memo layers (latency-model LRU, precomputed FLOPs coefficients, interned
hash chains, profile-run and JCT-estimator interning) exist purely for speed;
these property tests pin that every cached value equals a fresh computation
exactly — no rounding, no drift — and that the
:mod:`repro.perf.memo` switchboard cleanly toggles and clears the caches.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.jct import JCTEstimator
from repro.core.profile_run import run_profile
from repro.hardware.interconnect import PCIE_GEN4
from repro.kvcache.block import (
    GLOBAL_HASH_CHAIN_CACHE,
    HashChainCache,
    hash_chain,
    hash_token_blocks,
)
from repro.model.config import get_model
from repro.model.flops import FlopsModel
from repro.model.latency import LatencyModel
from repro.model.memory import PrefillMode
from repro.perf import memo
from repro.workloads.trace import TokenSegment, TokenSequence


@pytest.fixture()
def memo_off():
    """Run a test with every memo layer disabled; restore afterwards."""
    was = memo.memo_enabled()
    memo.set_memo_enabled(False)
    yield
    memo.set_memo_enabled(was)


# --------------------------------------------------------------- latency LRU


@settings(max_examples=60, deadline=None)
@given(
    new_tokens=st.integers(min_value=0, max_value=40_000),
    cached_tokens=st.integers(min_value=0, max_value=40_000),
    mode=st.sampled_from(list(PrefillMode)),
    chunk_tokens=st.sampled_from([512, 2048]),
    parallel=st.sampled_from([(1, 1), (2, 1), (1, 2)]),
)
def test_prefill_time_memo_is_bit_identical(new_tokens, cached_tokens, mode,
                                            chunk_tokens, parallel):
    model = get_model("llama-3.1-8b")
    from repro.hardware.gpu import get_gpu

    gpu = get_gpu("h100-80gb")
    tensor_parallel, pipeline_parallel = parallel
    memoized = LatencyModel(model, gpu, PCIE_GEN4)
    was = memo.memo_enabled()
    try:
        memo.set_memo_enabled(True)
        warm_model = memoized
        first = warm_model.prefill_time(
            new_tokens, num_cached_tokens=cached_tokens, mode=mode,
            chunk_tokens=chunk_tokens, tensor_parallel=tensor_parallel,
            pipeline_parallel=pipeline_parallel,
        )
        second = warm_model.prefill_time(
            new_tokens, num_cached_tokens=cached_tokens, mode=mode,
            chunk_tokens=chunk_tokens, tensor_parallel=tensor_parallel,
            pipeline_parallel=pipeline_parallel,
        )
        memo.set_memo_enabled(False)
        cold = LatencyModel(model, gpu, PCIE_GEN4).prefill_time(
            new_tokens, num_cached_tokens=cached_tokens, mode=mode,
            chunk_tokens=chunk_tokens, tensor_parallel=tensor_parallel,
            pipeline_parallel=pipeline_parallel,
        )
    finally:
        memo.set_memo_enabled(was)
    assert second is first  # the memo returned the cached object
    assert (first.compute_time, first.communication_time, first.overhead_time) == (
        cold.compute_time, cold.communication_time, cold.overhead_time
    )


@settings(max_examples=30, deadline=None)
@given(
    prompt=st.integers(min_value=0, max_value=20_000),
    outputs=st.integers(min_value=0, max_value=200),
    batch=st.sampled_from([1, 8, 32]),
)
def test_decode_time_memo_is_bit_identical(prompt, outputs, batch):
    model = get_model("qwen-32b-fp8")
    from repro.hardware.gpu import get_gpu

    gpu = get_gpu("a100-40gb")
    was = memo.memo_enabled()
    try:
        memo.set_memo_enabled(True)
        warm = LatencyModel(model, gpu)
        first = warm.decode_time(prompt, outputs, batch_size=batch)
        second = warm.decode_time(prompt, outputs, batch_size=batch)
        memo.set_memo_enabled(False)
        cold = LatencyModel(model, gpu).decode_time(prompt, outputs, batch_size=batch)
    finally:
        memo.set_memo_enabled(was)
    assert first == second == cold


def test_latency_memo_toggle_clears(memo_off):
    from repro.hardware.gpu import get_gpu

    latency = LatencyModel(get_model("llama-3.1-8b"), get_gpu("l4"))
    latency.prefill_time(1000)
    assert latency.memo_sizes() == (0, 0)  # disabled: nothing cached
    memo.set_memo_enabled(True)
    latency.prefill_time(1000)
    latency.decode_time(1000, 4)
    assert latency.memo_sizes() == (1, 1)
    memo.set_memo_enabled(False)
    latency.prefill_time(1000)  # uncached path; stale entries linger unused
    assert latency.memo_sizes() == (1, 1)
    memo.set_memo_enabled(True)
    latency.decode_time(2000, 4)  # epoch change drops the stale entries first
    assert latency.memo_sizes() == (0, 1)


# ----------------------------------------------- FLOPs coefficient precompute


@settings(max_examples=60, deadline=None)
@given(
    new_tokens=st.integers(min_value=0, max_value=100_000),
    cached_tokens=st.integers(min_value=0, max_value=100_000),
)
def test_precomputed_prefill_flops_match_seed_formula(new_tokens, cached_tokens):
    """The precomputed coefficients reproduce the seed's inline arithmetic."""
    model = get_model("llama-3.3-70b-fp8")
    got = FlopsModel(model).prefill(new_tokens, num_cached_tokens=cached_tokens)
    # The seed implementation, verbatim:
    dense = 2.0 * model.num_parameters * new_tokens
    per_layer = 4.0 * model.num_attention_heads * model.head_dim
    new_new = per_layer * new_tokens * max(new_tokens, 1) / 2.0
    new_cached = per_layer * new_tokens * cached_tokens
    attention = model.num_layers * (new_new + new_cached)
    assert got.dense_flops == dense
    assert got.attention_flops == attention


@settings(max_examples=40, deadline=None)
@given(context=st.integers(min_value=0, max_value=200_000))
def test_precomputed_decode_flops_match_seed_formula(context):
    model = get_model("qwen-32b-fp8")
    got = FlopsModel(model).decode_step(context)
    dense = 2.0 * model.num_parameters
    per_layer = 4.0 * model.num_attention_heads * model.head_dim
    attention = model.num_layers * per_layer * context
    assert got.dense_flops == dense
    assert got.attention_flops == attention


# ------------------------------------------------------- interned hash chains


@settings(max_examples=50, deadline=None)
@given(
    parent=st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    content=st.lists(st.tuples(st.integers(0, 2 ** 30), st.integers(0, 255),
                               st.integers(1, 256)), min_size=1, max_size=4),
)
def test_interned_chain_equals_hash_chain(parent, content):
    cache = HashChainCache(maxsize=128)
    content = tuple(content)
    assert cache.chain(parent, content) == hash_chain(parent, content)
    # Second query hits and still agrees.
    assert cache.chain(parent, content) == hash_chain(parent, content)
    assert cache.hits == 1 and cache.misses == 1


def test_hash_chain_cache_bounded():
    cache = HashChainCache(maxsize=4)
    for value in range(10):
        cache.chain(value, (value,))
    assert len(cache) <= 4
    with pytest.raises(ValueError):
        HashChainCache(maxsize=0)


@settings(max_examples=40, deadline=None)
@given(
    segments=st.lists(
        st.tuples(st.integers(0, 10), st.integers(1, 700)),
        min_size=1, max_size=6,
    ),
    block_size=st.sampled_from([16, 256]),
)
def test_block_hashes_identical_with_and_without_interning(segments, block_size):
    """The whole-sequence memo + interned chains reproduce the seed hashes."""
    was = memo.memo_enabled()
    try:
        memo.set_memo_enabled(False)
        plain = TokenSequence(
            [TokenSegment(cid, length) for cid, length in segments]
        ).block_hashes(block_size)
        memo.set_memo_enabled(True)
        interned_first = TokenSequence(
            [TokenSegment(cid, length) for cid, length in segments]
        ).block_hashes(block_size)
        # A *distinct but equal* sequence must hit the whole-sequence memo.
        interned_second = TokenSequence(
            [TokenSegment(cid, length) for cid, length in segments]
        ).block_hashes(block_size)
    finally:
        memo.set_memo_enabled(was)
    assert plain == interned_first
    assert interned_second is interned_first


def test_shared_prefixes_hit_the_chain_cache():
    memo.clear_all_caches()
    base = [TokenSegment(1, 512)]
    TokenSequence(base + [TokenSegment(2, 256)]).block_hashes(256)
    hits_before = GLOBAL_HASH_CHAIN_CACHE.hits
    # Shares the first two blocks (the 512-token segment) with the first
    # sequence; the interned chain serves them from cache.
    TokenSequence(base + [TokenSegment(3, 256)]).block_hashes(256)
    assert GLOBAL_HASH_CHAIN_CACHE.hits >= hits_before + 2


def test_hash_token_blocks_unchanged_by_memoization(memo_off):
    tokens = list(range(1000))
    plain = hash_token_blocks(tokens, 256)
    memo.set_memo_enabled(True)
    assert hash_token_blocks(tokens, 256) == plain


# ------------------------------------------- profile-run / estimator interning


def test_run_profile_interned_result_is_identical(h100_gpu, llama_70b):
    was = memo.memo_enabled()
    try:
        memo.set_memo_enabled(True)
        first = run_profile(llama_70b, h100_gpu, max_input_length=20_000,
                            mode=PrefillMode.HYBRID)
        second = run_profile(llama_70b, h100_gpu, max_input_length=20_000,
                             mode=PrefillMode.HYBRID)
        memo.set_memo_enabled(False)
        cold = run_profile(llama_70b, h100_gpu, max_input_length=20_000,
                           mode=PrefillMode.HYBRID)
    finally:
        memo.set_memo_enabled(was)
    assert second is first
    assert first == cold


def test_jct_estimator_interned_fit_is_identical(h100_gpu, llama_70b):
    latency = LatencyModel(llama_70b, h100_gpu)
    was = memo.memo_enabled()
    try:
        memo.set_memo_enabled(True)
        first = JCTEstimator.from_latency_model(latency, 12_000)
        second = JCTEstimator.from_latency_model(latency, 12_000)
        memo.set_memo_enabled(False)
        cold = JCTEstimator.from_latency_model(latency, 12_000)
    finally:
        memo.set_memo_enabled(was)
    assert second is first
    assert (first.coef_uncached, first.coef_cached, first.intercept) == (
        cold.coef_uncached, cold.coef_cached, cold.intercept
    )


# ------------------------------------------------------- end-to-end identity


def _assert_identical_with_memo_on_and_off(run) -> None:
    was = memo.memo_enabled()
    try:
        memo.set_memo_enabled(True)
        warm = run()
        memo.set_memo_enabled(False)
        cold = run()
    finally:
        memo.set_memo_enabled(was)
    assert warm.summary == cold.summary
    warm_records = [(r.request_id, r.start_time, r.finish_time, r.cached_tokens)
                    for r in warm.finished]
    cold_records = [(r.request_id, r.start_time, r.finish_time, r.cached_tokens)
                    for r in cold.finished]
    assert warm_records == cold_records
    assert warm.num_events == cold.num_events


def test_simulation_results_identical_with_memo_on_and_off(h100_setup, small_post_trace):
    """A full simulation must not change by a bit when memoization is off."""
    from repro.analysis.sweep import run_once
    from repro.core.engine import prefillonly_engine_spec

    spec = prefillonly_engine_spec()
    _assert_identical_with_memo_on_and_off(
        lambda: run_once(spec, h100_setup, small_post_trace, qps=6.0)
    )


def test_tiered_chaos_fleet_identical_with_memo_on_and_off(h100_setup, small_post_trace):
    """Fitted-JCT replicas over the tiered prefix cache, under every fault kind."""
    from repro.cluster import Fleet
    from repro.core.engine import prefillonly_engine_spec
    from repro.faults import fault_schedule_from_dict
    from repro.kvcache.tiers import TierConfig
    from repro.simulation.arrival import make_arrival
    from repro.simulation.simulator import simulate_fleet

    faults = fault_schedule_from_dict({
        "enabled": True,
        "warm_restore_blocks": 256,
        "events": [
            {"kind": "crash", "replica": 0, "at": 2.0, "recover_at": 7.0},
            {"kind": "slow", "replica": 2, "at": 1.0, "duration": 6.0,
             "multiplier": 2.5},
            {"kind": "brownout", "at": 3.0, "duration": 4.0, "multiplier": 4.0},
            {"kind": "outage", "at": 5.0, "duration": 2.0},
        ],
    })

    def run():
        fleet = Fleet.for_setup(
            prefillonly_engine_spec().with_overrides(use_fitted_jct=True), h100_setup,
            max_input_length=small_post_trace.max_request_tokens, num_replicas=4,
            tier_config=TierConfig(enabled=True, host_gib=2.0, cluster_gib=8.0),
        )
        requests = make_arrival("mmpp", base_rate=4.0, burst_rate=40.0, seed=2).assign(
            list(small_post_trace.requests)
        )
        return simulate_fleet(fleet, requests, faults=faults)

    _assert_identical_with_memo_on_and_off(run)
