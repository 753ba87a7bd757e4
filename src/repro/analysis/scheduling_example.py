"""The Figure 5 scheduling example, as an executable scenario.

§6.2/§6.3 of the paper walk through four requests A, B, C, D that arrive
together with lengths A < C < B < D, where A and D share a prefix, B and C
share a prefix, and the prefix cache can only hold roughly one request's state.
FIFO and plain SRJF each achieve one prefix-cache hit; SRJF with continuous JCT
calibration achieves two, because after A finishes it notices that D's JCT just
dropped and schedules D before C evicts A's cache.

:func:`run_scheduling_example` replays that scenario against a real scheduler
and a real KV-cache manager and reports the schedule and the hit count, so the
example is a measurable property of the implementation rather than prose.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.request_state import EngineRequest
from repro.core.scheduler import Scheduler, make_scheduler
from repro.kvcache.manager import CommitPolicy, KVCacheManager
from repro.workloads.trace import Request, TokenSegment, TokenSequence

#: Block size used by the example (small so the scenario stays readable).
EXAMPLE_BLOCK_SIZE = 16

#: Content ids of the two shared prefixes.
_PREFIX_AD = 1
_PREFIX_BC = 2
_UNIQUE_BASE = 100


@dataclass(frozen=True)
class SchedulingExampleResult:
    """Outcome of one policy on the Figure 5 scenario."""

    policy: str
    schedule: tuple[str, ...]
    cache_hits: int
    hit_requests: tuple[str, ...]


def build_example_requests(*, block_size: int = EXAMPLE_BLOCK_SIZE) -> dict[str, Request]:
    """Build the four requests of the example.

    Lengths (in blocks): A=4, C=6, B=8, D=9, so A < C < B < D as in the paper.
    A and D share their first four blocks; B and C share their first four blocks.
    """
    def request(name: str, request_id: int, prefix_id: int, unique_blocks: int) -> Request:
        segments = [
            TokenSegment(prefix_id, 4 * block_size),
            TokenSegment(_UNIQUE_BASE + request_id, unique_blocks * block_size),
        ] if unique_blocks else [TokenSegment(prefix_id, 4 * block_size)]
        return Request(request_id=request_id, user_id=name,
                       sequence=TokenSequence(segments))

    return {
        "A": request("A", 0, _PREFIX_AD, 0),
        "B": request("B", 1, _PREFIX_BC, 4),
        "C": request("C", 2, _PREFIX_BC, 2),
        "D": request("D", 3, _PREFIX_AD, 5),
    }


def run_scheduling_example(policy: str, *, cache_blocks: int = 8,
                           block_size: int = EXAMPLE_BLOCK_SIZE) -> SchedulingExampleResult:
    """Replay the Figure 5 scenario under one scheduling policy.

    Args:
        policy: ``"fcfs"``, ``"srjf"``, or ``"srjf-calibrated"``.
        cache_blocks: Prefix-cache capacity in blocks (the paper's "can only
            hold the state of about one request").
        block_size: Tokens per block.
    """
    requests = build_example_requests(block_size=block_size)
    kv = KVCacheManager(cache_blocks * block_size, block_size=block_size)
    scheduler: Scheduler = make_scheduler(policy, fairness_lambda=0.0)

    # All four requests arrive together; FIFO ties are broken by arrival order
    # A, B, C, D (the paper's presentation order).
    queue: list[EngineRequest] = []
    for arrival_index, name in enumerate(["A", "B", "C", "D"]):
        request = requests[name]
        engine_request = EngineRequest(
            request=request,
            block_hashes=request.sequence.block_hashes(block_size),
            enqueue_time=arrival_index * 1e-6,
        )
        scheduler.on_submit(engine_request, kv, now=0.0)
        queue.append(engine_request)

    schedule: list[str] = []
    hits: list[str] = []
    now = 0.0
    while queue:
        decision = scheduler.select(queue, kv, now=now)
        engine_request = decision.request
        queue.remove(engine_request)
        scheduler.on_remove(engine_request)
        lease = kv.begin_execution(
            engine_request.block_hashes, engine_request.num_tokens,
            reserve_full_kv=False, now=now,
        )
        name = engine_request.request.user_id
        schedule.append(name)
        if lease.cached_tokens > 0:
            hits.append(name)
        kv.finish_execution(lease, policy=CommitPolicy.FULL, now=now)
        now += 1.0

    return SchedulingExampleResult(
        policy=policy,
        schedule=tuple(schedule),
        cache_hits=len(hits),
        hit_requests=tuple(hits),
    )


def figure5_comparison(*, cache_blocks: int = 8) -> list[SchedulingExampleResult]:
    """Run all three policies of Figure 5 and return their results."""
    return [
        run_scheduling_example(policy, cache_blocks=cache_blocks)
        for policy in ("fcfs", "srjf", "srjf-calibrated")
    ]
