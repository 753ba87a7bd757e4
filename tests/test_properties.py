"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.request_state import EngineRequest
from repro.core.scheduler import SRJFScheduler
from repro.execution.chunked_linear import ChunkedExecutionOptions, chunked_positionwise
from repro.kvcache.allocator import BlockAllocator
from repro.kvcache.block import count_blocks, hash_token_blocks
from repro.kvcache.manager import KVCacheManager
from repro.kvcache.prefix_tree import RadixPrefixCache
from repro.simulation.arrival import PoissonArrivalProcess
from repro.simulation.metrics import summarize_finished
from repro.core.engine import FinishedRequest
from repro.workloads.trace import Request, TokenSegment, TokenSequence


BLOCK = 16

# ------------------------------------------------------------------ hashing

token_lists = st.lists(st.integers(min_value=0, max_value=1000), min_size=0, max_size=200)


@given(tokens=token_lists, block_size=st.integers(min_value=1, max_value=64))
def test_hash_block_count_matches_full_blocks(tokens, block_size):
    hashes = hash_token_blocks(tokens, block_size)
    assert len(hashes) == len(tokens) // block_size
    assert count_blocks(len(tokens), block_size) >= len(hashes)


@given(shared=token_lists, a_suffix=token_lists, b_suffix=token_lists)
def test_hash_prefix_agreement_equals_shared_blocks(shared, a_suffix, b_suffix):
    """Two token streams agree on exactly the blocks fully inside their common prefix."""
    a = shared + a_suffix
    b = shared + b_suffix
    ha = hash_token_blocks(a, BLOCK)
    hb = hash_token_blocks(b, BLOCK)
    common_prefix = 0
    for x, y in zip(a, b):
        if x != y:
            break
        common_prefix += 1
    guaranteed = common_prefix // BLOCK
    # They must agree on every block fully contained in the common prefix ...
    assert ha[:guaranteed] == hb[:guaranteed]
    # ... and the first disagreement (if any) happens exactly where content differs,
    # unless the suffixes happen to be identical too.
    for index, (x, y) in enumerate(zip(ha, hb)):
        if x != y:
            assert index >= guaranteed
            break


# ------------------------------------------------------------ token sequences

segments_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=400)),
    min_size=1,
    max_size=8,
)


@given(segments=segments_strategy, block_size=st.sampled_from([16, 64, 256]))
def test_token_sequence_block_hash_count(segments, block_size):
    sequence = TokenSequence([TokenSegment(cid, length) for cid, length in segments])
    hashes = sequence.block_hashes(block_size)
    assert len(hashes) == sequence.num_tokens // block_size
    assert len(set(hashes)) == len(hashes)  # chained hashes never repeat within one sequence


@given(segments=segments_strategy)
def test_token_sequence_shared_prefix_is_symmetric_and_bounded(segments):
    a = TokenSequence([TokenSegment(cid, length) for cid, length in segments])
    b = TokenSequence([TokenSegment(cid, length) for cid, length in segments])
    assert a.shared_prefix_tokens(b) == b.shared_prefix_tokens(a) == a.num_tokens


# ---------------------------------------------------------------- allocator

@given(operations=st.lists(st.booleans(), max_size=80))
def test_allocator_conservation(operations):
    """allocate/free in any order never loses or duplicates block ids."""
    allocator = BlockAllocator(num_blocks=16, block_size=BLOCK)
    held = []
    for allocate in operations:
        if allocate and allocator.num_free_blocks:
            held.append(allocator.allocate())
        elif held:
            allocator.free(held.pop())
        assert allocator.num_free_blocks + allocator.num_allocated_blocks == 16
        assert len(held) == allocator.num_allocated_blocks
    assert len(held) == len(set(held))
    assert all(block_id in allocator for block_id in held)


# --------------------------------------------------------------- radix tree

request_pool = st.lists(
    st.lists(st.integers(min_value=0, max_value=5), min_size=BLOCK, max_size=6 * BLOCK),
    min_size=1,
    max_size=12,
)


@given(requests=request_pool)
@settings(max_examples=50)
def test_radix_tree_never_exceeds_capacity_and_match_is_consistent(requests):
    allocator = BlockAllocator(num_blocks=8, block_size=BLOCK)
    cache = RadixPrefixCache(allocator)
    for index, tokens in enumerate(requests):
        hashes = hash_token_blocks(tokens, BLOCK)
        cache.insert(hashes, now=float(index))
        assert cache.num_cached_blocks <= 8
        # Whatever is reported as matched must be a prefix (no holes).
        match = cache.match_length(hashes)
        for position in range(match):
            assert hashes[position] in cache


# ------------------------------------------------------------------ manager

@given(
    lengths=st.lists(st.integers(min_value=1, max_value=20 * BLOCK), min_size=1, max_size=10),
    reserve=st.booleans(),
)
@settings(max_examples=50)
def test_manager_hit_tokens_never_exceed_request(lengths, reserve):
    manager = KVCacheManager(64 * BLOCK, block_size=BLOCK)
    for index, num_tokens in enumerate(lengths):
        sequence = TokenSequence([TokenSegment(index % 3, num_tokens)])
        hashes = sequence.block_hashes(BLOCK)
        cached = manager.lookup(hashes)
        assert 0 <= cached <= num_tokens
        lease = manager.begin_execution(hashes, num_tokens, reserve_full_kv=reserve)
        assert lease.cached_tokens <= num_tokens
        manager.finish_execution(lease)


# ---------------------------------------------------------------- scheduler

queue_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5000),   # tokens
        st.floats(min_value=0.0, max_value=100.0),  # enqueue time
    ),
    min_size=1,
    max_size=20,
)


@given(queue_spec=queue_strategy, fairness=st.floats(min_value=0.0, max_value=1000.0))
@settings(max_examples=60)
def test_srjf_always_picks_the_minimum_score(queue_spec, fairness):
    kv = KVCacheManager(64 * BLOCK, block_size=BLOCK)
    scheduler = SRJFScheduler(fairness_lambda=fairness)
    queue = []
    for index, (tokens, enqueue_time) in enumerate(queue_spec):
        request = Request(request_id=index, user_id=f"u{index}",
                          sequence=TokenSequence([TokenSegment(index, tokens)]))
        queue.append(EngineRequest(request=request,
                                   block_hashes=request.sequence.block_hashes(BLOCK),
                                   enqueue_time=enqueue_time))
    now = 200.0
    decision = scheduler.select(queue, kv, now=now)
    scores = [
        er.num_tokens - fairness * (now - er.enqueue_time) for er in queue
    ]
    assert decision.score == min(scores)


@given(queue_spec=queue_strategy)
@settings(max_examples=30)
def test_srjf_with_zero_lambda_picks_fewest_uncached_tokens(queue_spec):
    kv = KVCacheManager(64 * BLOCK, block_size=BLOCK)
    scheduler = SRJFScheduler(fairness_lambda=0.0)
    queue = []
    for index, (tokens, enqueue_time) in enumerate(queue_spec):
        request = Request(request_id=index, user_id=f"u{index}",
                          sequence=TokenSequence([TokenSegment(index, tokens)]))
        queue.append(EngineRequest(request=request,
                                   block_hashes=request.sequence.block_hashes(BLOCK),
                                   enqueue_time=enqueue_time))
    decision = scheduler.select(queue, kv, now=500.0)
    assert decision.request.num_tokens == min(er.num_tokens for er in queue)


# ------------------------------------------------------------------ chunking

@given(
    num_tokens=st.integers(min_value=1, max_value=300),
    width=st.integers(min_value=1, max_value=32),
    chunk=st.integers(min_value=1, max_value=64),
    prealloc=st.booleans(),
)
@settings(max_examples=60)
def test_chunked_positionwise_matches_direct_application(num_tokens, width, chunk, prealloc):
    rng = np.random.default_rng(num_tokens * 1000 + width)
    inputs = rng.standard_normal((num_tokens, width))
    weights = rng.standard_normal((width, width + 3))
    expected = inputs @ weights
    result = chunked_positionwise(
        lambda rows: rows @ weights, inputs, width + 3,
        options=ChunkedExecutionOptions(chunk_tokens=chunk, preallocate_output=prealloc),
    )
    np.testing.assert_allclose(result, expected, rtol=1e-10, atol=1e-10)


# ------------------------------------------------------------------ arrivals

@given(rate=st.floats(min_value=0.01, max_value=1000.0), seed=st.integers(0, 2**16))
@settings(max_examples=40)
def test_poisson_arrival_times_sorted_and_positive(rate, seed):
    requests = [
        Request(request_id=i, user_id=f"u{i % 3}",
                sequence=TokenSequence([TokenSegment(i, 100)]))
        for i in range(20)
    ]
    assigned = PoissonArrivalProcess(rate=rate, seed=seed).assign(requests)
    times = [r.arrival_time for r in assigned]
    assert times == sorted(times)
    assert all(t > 0 for t in times)
    assert len(assigned) == 20


# ------------------------------------------------------------------- metrics

finished_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),   # arrival
        st.floats(min_value=0.0, max_value=50.0),    # queueing
        st.floats(min_value=0.001, max_value=50.0),  # execution
    ),
    min_size=1,
    max_size=40,
)


@given(samples=finished_strategy)
@settings(max_examples=50)
def test_latency_summary_invariants(samples):
    records = []
    for index, (arrival, queueing, execution) in enumerate(samples):
        start = arrival + queueing
        records.append(FinishedRequest(
            request_id=index, user_id="u", num_tokens=100, cached_tokens=0,
            arrival_time=arrival, start_time=start, finish_time=start + execution,
            instance_name="i", engine_name="e",
        ))
    summary = summarize_finished(records)
    assert summary.p50_latency <= summary.p90_latency <= summary.p99_latency <= summary.max_latency
    # The float mean of equal latencies can round an ulp above their maximum.
    assert 0 < summary.mean_latency <= summary.max_latency * (1 + 1e-12)
    assert summary.throughput_rps > 0
    assert summary.mean_latency >= summary.mean_execution_time * 0.999
