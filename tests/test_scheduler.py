"""Tests for the FCFS / SRJF / calibrated-SRJF schedulers (Algorithm 1)."""

import pytest

from repro.core.request_state import EngineRequest
from repro.core.scheduler import FCFSScheduler, SRJFScheduler, make_scheduler
from repro.errors import SchedulingError
from repro.hardware.interconnect import Interconnect
from repro.kvcache.manager import KVCacheManager
from repro.kvcache.offload import CPUOffloadStore
from repro.kvcache.tiers import TieredPrefixStore
from repro.workloads.trace import Request, TokenSegment, TokenSequence


BLOCK = 16


def make_request(request_id: int, segments: list[tuple[int, int]], *,
                 enqueue_time: float = 0.0, user: str = "u") -> EngineRequest:
    sequence = TokenSequence([TokenSegment(cid, length) for cid, length in segments])
    request = Request(request_id=request_id, user_id=user, sequence=sequence)
    return EngineRequest(
        request=request,
        block_hashes=sequence.block_hashes(BLOCK),
        enqueue_time=enqueue_time,
    )


def make_kv(capacity_tokens: int = 100 * BLOCK) -> KVCacheManager:
    return KVCacheManager(capacity_tokens, block_size=BLOCK)


def commit(kv: KVCacheManager, engine_request: EngineRequest) -> None:
    lease = kv.begin_execution(engine_request.block_hashes, engine_request.num_tokens,
                               reserve_full_kv=False)
    kv.finish_execution(lease)


def test_fcfs_picks_earliest_arrival():
    scheduler = FCFSScheduler()
    kv = make_kv()
    queue = [
        make_request(1, [(1, 64)], enqueue_time=2.0),
        make_request(2, [(2, 32)], enqueue_time=1.0),
    ]
    decision = scheduler.select(queue, kv, now=5.0)
    assert decision.request.request_id == 2


def test_fcfs_empty_queue_returns_none():
    assert FCFSScheduler().select([], make_kv(), now=0.0) is None


def test_srjf_picks_shortest_request():
    scheduler = SRJFScheduler(fairness_lambda=0.0)
    kv = make_kv()
    queue = [
        make_request(1, [(1, 320)]),
        make_request(2, [(2, 64)]),
        make_request(3, [(3, 640)]),
    ]
    decision = scheduler.select(queue, kv, now=0.0)
    assert decision.request.request_id == 2


def test_calibrated_srjf_prioritises_cache_hit_requests():
    """A longer request that hits the prefix cache beats a shorter cold one."""
    scheduler = SRJFScheduler(fairness_lambda=0.0, continuous_calibration=True)
    kv = make_kv()
    shared = (10, 512)
    cached_request = make_request(1, [shared, (11, 64)])     # 576 tokens, 512 cached
    cold_request = make_request(2, [(20, 256)])               # 256 tokens, cold
    # Populate the cache with the shared prefix.
    seed = make_request(0, [shared])
    commit(kv, seed)
    decision = scheduler.select([cached_request, cold_request], kv, now=0.0)
    assert decision.request.request_id == 1
    assert decision.cached_tokens == 512


def test_uncalibrated_srjf_misses_cache_hit_opportunity():
    """§6.2: classic SRJF scores with the JCT captured at arrival time."""
    scheduler = SRJFScheduler(fairness_lambda=0.0, continuous_calibration=False)
    kv = make_kv()
    shared = (10, 512)
    cached_request = make_request(1, [shared, (11, 64)])
    cold_request = make_request(2, [(20, 256)])
    # At arrival time the cache is empty, so both record zero cached tokens.
    scheduler.on_submit(cached_request, kv, now=0.0)
    scheduler.on_submit(cold_request, kv, now=0.0)
    # The prefix arrives *after* submission.
    commit(kv, make_request(0, [shared]))
    decision = scheduler.select([cached_request, cold_request], kv, now=1.0)
    assert decision.request.request_id == 2  # still picks the shorter cold request


def test_fairness_lambda_promotes_old_requests():
    scheduler = SRJFScheduler(fairness_lambda=500.0)
    kv = make_kv()
    old_long = make_request(1, [(1, 640)], enqueue_time=0.0)
    new_short = make_request(2, [(2, 64)], enqueue_time=9.5)
    decision = scheduler.select([old_long, new_short], kv, now=10.0)
    assert decision.request.request_id == 1


def test_zero_lambda_ignores_waiting_time():
    scheduler = SRJFScheduler(fairness_lambda=0.0)
    kv = make_kv()
    old_long = make_request(1, [(1, 640)], enqueue_time=0.0)
    new_short = make_request(2, [(2, 64)], enqueue_time=9.5)
    decision = scheduler.select([old_long, new_short], kv, now=10.0)
    assert decision.request.request_id == 2


def test_negative_lambda_rejected():
    with pytest.raises(SchedulingError):
        SRJFScheduler(fairness_lambda=-1.0)


def test_calibration_memoised_per_cache_version():
    scheduler = SRJFScheduler(fairness_lambda=0.0)
    kv = make_kv()
    request = make_request(1, [(1, 64)])
    scheduler.select([request], kv, now=0.0)
    assert request.calibration(kv.cache_version) is not None
    # A cache change invalidates the memo.
    commit(kv, make_request(2, [(2, 64)]))
    assert request.calibration(kv.cache_version) is None


def test_tie_breaks_by_request_id():
    scheduler = SRJFScheduler(fairness_lambda=0.0)
    kv = make_kv()
    queue = [make_request(5, [(1, 64)]), make_request(3, [(2, 64)])]
    decision = scheduler.select(queue, kv, now=0.0)
    assert decision.request.request_id == 3


def test_make_scheduler_factory():
    assert isinstance(make_scheduler("fcfs"), FCFSScheduler)
    srjf = make_scheduler("srjf")
    assert isinstance(srjf, SRJFScheduler) and not srjf.continuous_calibration
    calibrated = make_scheduler("srjf-calibrated", fairness_lambda=42.0)
    assert calibrated.continuous_calibration
    assert calibrated.fairness_lambda == 42.0
    with pytest.raises(SchedulingError):
        make_scheduler("round-robin")


def test_calibrated_srjf_reranks_tiered_requests_on_a_brownout():
    """A transfer-cost multiplier change re-derives every tiered score: the
    manager's change feed returns None on the next select."""
    # 0.1 s per host transfer at 1000 compute tokens/s: 100 penalty tokens.
    link = Interconnect(name="slow-host-link", bandwidth=1e12, latency=0.1)
    host = CPUOffloadStore(capacity_bytes=64 * 1024, block_bytes=1024, link=link)
    tiers = TieredPrefixStore(replica="r", block_size=BLOCK, block_bytes=1024,
                              host=host, compute_tokens_per_second=1000.0)
    kv = KVCacheManager(100 * BLOCK, block_size=BLOCK, tiers=tiers)
    host_resident = make_request(1, [(1, 128), (2, 16)])  # 16 miss + 100 penalty
    uncached = make_request(2, [(3, 200)])                # 200 miss
    host.store(host_resident.block_hashes[:128 // BLOCK])
    queue = [host_resident, uncached]
    scheduler = SRJFScheduler(fairness_lambda=0.0)
    assert scheduler.select(queue, kv, now=0.0).request.request_id == 1
    kv.set_transfer_cost_multiplier(4.0)                  # 16 miss + 400 penalty
    assert scheduler.select(queue, kv, now=0.0).request.request_id == 2


# ------------------------------------------------- exactness of the key heap

def reference_pick(queue, kv, now, fairness, *, calibrated=True):
    """Brute force: score every waiting request with the scheduler's exact
    expression and take the minimum, ties to the lower request id."""
    best = None
    for request in queue:
        cached = kv.lookup(request.block_hashes) if calibrated else request.initial_cached_tokens
        base = float(max(request.num_tokens - cached, 0))
        score = base - fairness * request.queueing_time(now)
        if best is None or (score, request.request_id) < (best[1], best[0].request_id):
            best = (request, score, cached)
    return best


def assert_picks_reference(scheduler, queue, kv, now):
    decision = scheduler.select(queue, kv, now)
    request, score, cached = reference_pick(queue, kv, now, scheduler.fairness_lambda,
                                            calibrated=scheduler.continuous_calibration)
    assert decision.request is request
    assert decision.score.hex() == score.hex()
    assert decision.cached_tokens == cached
    return decision


def uncached(request_id, tokens, enqueue_time):
    """A request of ``tokens`` unique tokens, so its base score is ``tokens``."""
    return make_request(request_id, [(1000 + request_id, tokens)], enqueue_time=enqueue_time)


def test_equal_heap_keys_with_different_exact_scores_pick_the_lower_score():
    """(a) Both keys round to 13197.5, but B's exact score is one ulp higher;
    B has the lower id and is popped first, and A must still win."""
    a = uncached(2, 5189, enqueue_time=16.017)
    b = uncached(1, 11849, enqueue_time=2.697)
    assert 5189.0 + 500.0 * 16.017 == 11849.0 + 500.0 * 2.697 == 13197.5
    decision = assert_picks_reference(SRJFScheduler(fairness_lambda=500.0), [b, a],
                                      make_kv(), now=75.475)
    assert decision.request is a
    assert decision.score == -24540.0


def test_equal_exact_scores_with_different_heap_keys_pick_the_lower_id():
    """(b) The keys differ in the last place and the lower-id request has the
    higher key, so it is popped second; the scores tie exactly."""
    low_id = uncached(1, 5950, enqueue_time=20.318)
    high_id = uncached(2, 61, enqueue_time=32.096)
    assert 5950.0 + 500.0 * 20.318 > 61.0 + 500.0 * 32.096
    kv, now = make_kv(), 67.743
    decision = assert_picks_reference(SRJFScheduler(fairness_lambda=500.0),
                                      [high_id, low_id], kv, now)
    assert decision.request is low_id
    assert decision.score == 61.0 - 500.0 * (now - 32.096)


def test_requests_stamped_ahead_of_the_clock_are_scored_exactly():
    """(c) A request enqueued after ``now`` scores its plain base, below what
    its heap key says, among requests that have waited; the picks follow the
    brute force as the clock passes the stamps and winners leave."""
    scheduler = SRJFScheduler(fairness_lambda=500.0)
    kv = make_kv()
    queue = [
        uncached(1, 4100, enqueue_time=2.0),    # score 100 at now=10, key 5100
        uncached(2, 600, enqueue_time=9.0),     # score 100, key 5100
        uncached(3, 50, enqueue_time=10.5),     # ahead: score 50, key 5300
        uncached(4, 2000, enqueue_time=12.0),   # ahead: score 2000, key 8000
        uncached(5, 350, enqueue_time=9.5),     # score 100, key 5100
    ]
    for request in queue:
        scheduler.on_submit(request, kv, 0.0)
    assert assert_picks_reference(scheduler, queue, kv, now=10.0).request is queue[2]
    # Equal scores of requests 1, 2 and 5 tie to the lower id.
    for now, expected in ((10.0, 3), (10.25, 1), (11.0, 2), (11.5, 5), (11.75, 4)):
        decision = assert_picks_reference(scheduler, queue, kv, now)
        assert decision.request.request_id == expected
        queue.remove(decision.request)
        scheduler.on_remove(decision.request)
    assert scheduler.select(queue, kv, 12.0) is None


def test_zero_lambda_and_arrival_time_srjf_match_the_brute_force():
    """(d) λ = 0 scores the base alone, equal bases tie to the lower id; and
    arrival-time SRJF keeps the cached count captured at submit time."""
    kv = make_kv()
    shared = (10, 512)
    queue = [make_request(7, [shared, (11, 64)], enqueue_time=0.0),
             make_request(3, [(20, 128)], enqueue_time=1.0),
             make_request(5, [(21, 128)], enqueue_time=2.0),
             make_request(9, [(22, 96)], enqueue_time=3.0)]
    zero = SRJFScheduler(fairness_lambda=0.0)
    arrival = SRJFScheduler(fairness_lambda=2.5, continuous_calibration=False)
    for request in queue:
        zero.on_submit(request, kv, 0.0)
        arrival.on_submit(request, kv, 0.0)
    commit(kv, make_request(0, [shared]))
    # Calibrated: the 64 uncached tokens of request 7 now win; arrival-time
    # SRJF still scores it at 576 tokens.
    assert assert_picks_reference(zero, queue, kv, now=4.0).request.request_id == 7
    assert assert_picks_reference(arrival, queue, kv, now=4.0).request.request_id == 9
    for scheduler in (zero, arrival):
        waiting = list(queue)
        for now in (4.0, 4.5, 5.0, 6.0):
            decision = assert_picks_reference(scheduler, waiting, kv, now)
            waiting.remove(decision.request)
            scheduler.on_remove(decision.request)


def test_a_request_that_left_the_queue_is_never_picked():
    """A removed request's heap entry is stale, and so is the old entry of a
    request re-derived after a cache change."""
    scheduler = SRJFScheduler(fairness_lambda=0.0)
    kv = make_kv()
    shared = (10, 512)
    short, hit, cold = (uncached(1, 32, 0.0), make_request(2, [shared, (11, 64)]),
                        uncached(3, 300, 0.0))
    queue = [short, hit, cold]
    for request in queue:
        scheduler.on_submit(request, kv, 0.0)
    assert assert_picks_reference(scheduler, queue, kv, now=0.0).request is short
    queue.remove(short)
    scheduler.on_remove(short)
    assert assert_picks_reference(scheduler, queue, kv, now=0.0).request is cold
    commit(kv, make_request(0, [shared]))   # re-derives hit: 576 -> 64 tokens
    assert assert_picks_reference(scheduler, queue, kv, now=0.0).request is hit
    kv.clear()                              # and back to 576 tokens
    assert assert_picks_reference(scheduler, queue, kv, now=0.0).request is cold


def test_the_heap_is_rebuilt_once_stale_entries_outnumber_live_ones():
    scheduler = SRJFScheduler(fairness_lambda=500.0)
    kv = make_kv()
    queue = [uncached(i, 100 + i, enqueue_time=0.0) for i in range(12)]
    for request in queue:
        scheduler.on_submit(request, kv, 0.0)
    scheduler.select(queue, kv, 1.0)
    for request in queue[1:10]:
        queue.remove(request)
        scheduler.on_remove(request)
    assert len(scheduler._heap) == 12
    assert_picks_reference(scheduler, queue, kv, now=2.0)
    assert len(scheduler._heap) <= 2 * len(queue)
