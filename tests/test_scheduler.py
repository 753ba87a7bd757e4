"""Tests for the FCFS / SRJF / calibrated-SRJF schedulers (Algorithm 1)."""

import pytest

from repro.core.request_state import EngineRequest
from repro.core.scheduler import FCFSScheduler, SRJFScheduler, make_scheduler
from repro.errors import SchedulingError
from repro.hardware.interconnect import Interconnect
from repro.kvcache.manager import CommitPolicy, KVCacheManager
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
    kv.finish_execution(lease, policy=CommitPolicy.FULL)


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
