"""Memoized analytic models must be bit-identical to the unmemoized paths.

The memo layers (the latency model's prefill LRU, precomputed FLOPs
coefficients, whole-sequence block hashes, profile-run interning) exist
purely for speed; these property tests pin that every cached value equals a
fresh computation exactly — no rounding, no drift.  Each layer is compared
with the uncached function that fills it, and two whole runs are compared
with the same runs under :func:`uncached`, which routes every layer to that
function.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.profile_run
import repro.workloads.trace
from repro.core.profile_run import run_profile
from repro.hardware.interconnect import PCIE_GEN4
from repro.kvcache.block import hash_token_blocks
from repro.model.config import get_model
from repro.model.flops import FlopsModel
from repro.model.latency import LatencyModel
from repro.model.memory import PrefillMode
from repro.workloads.trace import _SEQUENCE_HASH_MEMO, TokenSegment, TokenSequence
from test_block_hashes import reference_block_hashes


class _StoresNothing(dict):
    """A memo table that never keeps an entry, so every lookup misses."""

    def __setitem__(self, key, value) -> None:
        pass


def _uncached_prefill_time(self, num_new_tokens, *, num_cached_tokens=0,
                           mode=PrefillMode.FULL, chunk_tokens=2048,
                           tensor_parallel=1, pipeline_parallel=1):
    return self._prefill_time_uncached(num_new_tokens, num_cached_tokens, mode,
                                       chunk_tokens, tensor_parallel, pipeline_parallel)


@pytest.fixture()
def uncached(monkeypatch):
    """A call that routes every memo layer to the uncached function filling it.

    The latency model's memo is per instance, so ``prefill_time`` itself is
    replaced; the module-level tables become tables that store nothing.  The
    routing lasts until the test ends.
    """
    def route() -> None:
        monkeypatch.setattr(LatencyModel, "prefill_time", _uncached_prefill_time)
        monkeypatch.setattr(repro.core.profile_run, "_PROFILE_MEMO", _StoresNothing())
        monkeypatch.setattr(repro.workloads.trace, "_SEQUENCE_HASH_MEMO",
                            _StoresNothing())
    return route


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
    warm_model = LatencyModel(model, gpu, PCIE_GEN4)
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
    cold = LatencyModel(model, gpu, PCIE_GEN4)._prefill_time_uncached(
        new_tokens, cached_tokens, mode, chunk_tokens, tensor_parallel,
        pipeline_parallel,
    )
    assert second is first  # the memo returned the cached object
    assert (first.compute_time, first.communication_time, first.overhead_time) == (
        cold.compute_time, cold.communication_time, cold.overhead_time
    )


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


# ------------------------------------------------ whole-sequence block hashes


@settings(max_examples=40, deadline=None)
@given(
    segments=st.lists(
        st.tuples(st.integers(0, 10), st.integers(1, 700)),
        min_size=1, max_size=6,
    ),
    block_size=st.sampled_from([16, 256]),
)
def test_block_hashes_identical_with_and_without_the_sequence_memo(segments, block_size):
    """The whole-sequence memo reproduces the per-block walk, cold and warm."""
    segments = tuple(TokenSegment(cid, length) for cid, length in segments)
    expected = reference_block_hashes(segments, block_size)
    _SEQUENCE_HASH_MEMO.clear()
    cold = TokenSequence(segments).block_hashes(block_size)
    warm = TokenSequence(segments).block_hashes(block_size)
    # A *distinct but equal* sequence must hit the whole-sequence memo.
    assert warm is cold
    assert cold == expected


def test_hash_token_blocks_unchanged_by_memoization(uncached):
    tokens = list(range(1000))
    hashes = hash_token_blocks(tokens, 256)
    uncached()
    assert hash_token_blocks(tokens, 256) == hashes


# ------------------------------------------------------- profile-run interning


def test_run_profile_interned_result_is_identical(h100_gpu, llama_70b, uncached):
    first = run_profile(llama_70b, h100_gpu, max_input_length=20_000,
                        mode=PrefillMode.HYBRID)
    second = run_profile(llama_70b, h100_gpu, max_input_length=20_000,
                         mode=PrefillMode.HYBRID)
    uncached()
    cold = run_profile(llama_70b, h100_gpu, max_input_length=20_000,
                       mode=PrefillMode.HYBRID)
    assert second is first
    assert cold is not first  # recomputed, not served from the table
    assert first == cold


# ------------------------------------------------------- end-to-end identity


def _assert_identical_with_memo_on_and_off(run, uncached) -> None:
    warm = run()
    uncached()
    cold = run()
    assert warm.summary == cold.summary
    warm_records = [(r.request_id, r.start_time, r.finish_time, r.cached_tokens)
                    for r in warm.finished]
    cold_records = [(r.request_id, r.start_time, r.finish_time, r.cached_tokens)
                    for r in cold.finished]
    assert warm_records == cold_records
    assert warm.num_events == cold.num_events


def test_simulation_results_identical_with_memo_on_and_off(h100_setup, small_post_trace,
                                                           uncached):
    """A full simulation must not change by a bit when memoization is off."""
    from repro.analysis.sweep import run_once
    from repro.core.engine import prefillonly_engine_spec

    spec = prefillonly_engine_spec()
    _assert_identical_with_memo_on_and_off(
        lambda: run_once(spec, h100_setup, small_post_trace, qps=6.0), uncached
    )


def test_tiered_chaos_fleet_identical_with_memo_on_and_off(h100_setup, small_post_trace,
                                                          uncached):
    """Replicas over the tiered prefix cache, under every fault kind."""
    from repro.cluster import Fleet
    from repro.core.engine import prefillonly_engine_spec
    from repro.faults import fault_schedule_from_dict
    from repro.kvcache.tiers import tier_config_from_dict
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
            prefillonly_engine_spec(), h100_setup,
            max_input_length=small_post_trace.max_request_tokens, num_replicas=4,
            tier_config=tier_config_from_dict({"enabled": True, "tiers": {
                "host": {"capacity_gib": 2.0}, "cluster": {"capacity_gib": 8.0},
            }}),
        )
        requests = make_arrival("mmpp", base_rate=4.0, burst_rate=40.0, seed=2).assign(
            list(small_post_trace.requests)
        )
        return simulate_fleet(fleet, requests, faults=faults)

    _assert_identical_with_memo_on_and_off(run, uncached)
