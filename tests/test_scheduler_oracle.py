"""Differential oracle and invariants for the frontier-indexed SRJF scheduler.

Hypothesis drives op sequences (submit, select-and-start, finish-and-commit,
outside commits, cancel, clear, clock ticks) through the production
:class:`~repro.core.scheduler.SRJFScheduler` over a small KV cache, so
insertions and evictions move the waiting requests' prefix frontiers all the
time.  After every select the decision is checked against a brute-force
reference that re-looks-up every waiting request from the root, and every
waiting request's stored cached-token count against a fresh lookup.  Once
the queue drains, the scheduler's frontier index and the radix tree's change
record must be empty, and must stay empty while nothing waits.

Runs under the shared ``oracle-run`` hypothesis profile (``tests/conftest.py``).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.engine import EngineInstance, prefillonly_engine_spec
from repro.core.jct import JCTEstimator
from repro.core.request_state import EngineRequest
from repro.core.scheduler import SRJFScheduler
from repro.errors import CapacityError
from repro.kvcache.manager import CommitPolicy, KVCacheManager
from repro.model.config import get_model
from repro.workloads.trace import Request, TokenSegment, TokenSequence

BLOCK = 16

#: A fitted-model stand-in: seconds per uncached and per cached token, plus a floor.
ESTIMATOR = JCTEstimator(1e-4, 2e-6, 0.01)


def reference_select(queue, kv, now, fairness, estimator):
    """Brute force: a fresh root lookup for every waiting request."""
    best = None
    for request in queue:
        cached = kv.lookup(request.block_hashes)
        if estimator is None:
            base = JCTEstimator.proxy(request.num_tokens, cached)
        else:
            base = estimator.estimate(request.num_tokens, cached)
        score = base - fairness * request.queueing_time(now)
        if best is None or (score, request.request_id) < (best[1], best[0].request_id):
            best = (request, score, cached)
    return best


def assert_stored_counts_current(queue, kv):
    for request in queue:
        assert request.last_calibration()[1] == kv.lookup(request.block_hashes)


def assert_index_empty(scheduler, kv):
    assert scheduler._entries == {}
    assert scheduler._frontier == {}
    assert kv._cache._changed == set()


def sequence(prefix: int, depth: int, branch: int, tail: int, unique: int) -> TokenSequence:
    """A two-level shared prefix (``prefix``, then ``branch``) plus a unique tail."""
    segments = [TokenSegment(prefix, depth * BLOCK)]
    if branch:
        segments.append(TokenSegment(100 + 10 * prefix + branch, 2 * BLOCK))
    if tail:
        segments.append(TokenSegment(10_000 + unique, tail))
    return TokenSequence(segments)


def commit(kv: KVCacheManager, seq: TokenSequence, now: float) -> None:
    lease = kv.begin_execution(seq.block_hashes(BLOCK), seq.num_tokens,
                               reserve_full_kv=False, now=now)
    kv.finish_execution(lease, policy=CommitPolicy.FULL, now=now)


shape = st.tuples(st.integers(0, 1), st.integers(1, 4), st.integers(0, 2),
                  st.sampled_from([0, 8, 16, 24]))
# A request may be stamped ahead of the clock; its queueing time is then zero.
ahead = st.sampled_from([0.0, 0.0, 0.5])
# Submits, selects that leave the queue as it is, and outside commits are
# drawn twice as often as the other ops, so most waiting requests live
# through several cache changes between selects.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), shape, st.booleans(), ahead),
        st.tuples(st.just("submit"), shape, st.booleans(), ahead),
        st.tuples(st.just("select"), st.just(False)),
        st.tuples(st.just("select"), st.booleans()),
        st.tuples(st.just("finish"), st.integers(0, 7), st.booleans()),
        st.tuples(st.just("commit"), shape),
        st.tuples(st.just("commit"), shape),
        st.tuples(st.just("cancel"), st.integers(0, 15)),
        st.tuples(st.just("clear")),
        st.tuples(st.just("tick"), st.sampled_from([0.0, 0.001, 0.25, 1.0])),
    ),
    min_size=10,
    max_size=80,
)


@settings.get_profile("oracle-run")
@given(ops=ops, capacity_blocks=st.integers(3, 10),
       fairness=st.sampled_from([0.0, 500.0, 2.5]),
       estimator=st.sampled_from([None, ESTIMATOR]),
       reserve_full_kv=st.booleans())
def test_select_matches_brute_force_reference(ops, capacity_blocks, fairness, estimator,
                                              reserve_full_kv):
    kv = KVCacheManager(capacity_blocks * BLOCK, block_size=BLOCK)
    scheduler = SRJFScheduler(estimator=estimator, fairness_lambda=fairness)
    queue: list[EngineRequest] = []
    running = []
    now = 0.0
    next_id = 0

    def leave(request):
        queue.remove(request)
        scheduler.on_remove(request)

    for op in ops:
        kind = op[0]
        if kind == "submit":
            seq = sequence(*op[1], unique=next_id)
            request = EngineRequest(
                request=Request(request_id=next_id, user_id=f"u{op[1][0]}", sequence=seq),
                block_hashes=seq.block_hashes(BLOCK), enqueue_time=now + op[3],
            )
            next_id += 1
            if op[2]:
                scheduler.on_submit(request, kv, now)
            queue.append(request)
        elif kind == "select":
            decision = scheduler.select(queue, kv, now)
            expected = reference_select(queue, kv, now, fairness, estimator)
            if expected is None:
                assert decision is None
                continue
            assert decision.request is expected[0]
            assert decision.score.hex() == expected[1].hex()
            assert decision.cached_tokens == expected[2]
            assert_stored_counts_current(queue, kv)
            if op[1]:
                request = decision.request
                try:
                    lease = kv.begin_execution(request.block_hashes, request.num_tokens,
                                               reserve_full_kv=reserve_full_kv, now=now)
                except CapacityError:
                    if running:
                        continue  # retried after a running request finishes
                    lease = None
                leave(request)
                if lease is not None:
                    running.append(lease)
        elif kind == "finish" and running:
            lease = running.pop(op[1] % len(running))
            policy = CommitPolicy.FULL if op[2] else CommitPolicy.SUFFIX_DISCARD
            kv.finish_execution(lease, policy=policy, now=now)
        elif kind == "commit":
            commit(kv, sequence(*op[1], unique=-1), now)
        elif kind == "cancel" and queue:
            leave(queue[op[1] % len(queue)])
        elif kind == "clear" and not running:
            kv.clear()
        elif kind == "tick":
            now += op[1]

    for request in list(queue):
        leave(request)
    assert_index_empty(scheduler, kv)
    for lease in running:
        kv.finish_execution(lease, policy=CommitPolicy.FULL, now=now)
    commit(kv, sequence(0, 5, 1, 40, unique=-2), now)
    assert_index_empty(scheduler, kv)


def test_select_without_on_submit_and_after_clear():
    kv = KVCacheManager(8 * BLOCK, block_size=BLOCK)
    scheduler = SRJFScheduler(fairness_lambda=0.0)
    seq = sequence(0, 3, 0, 8, unique=0)
    commit(kv, seq, 0.0)
    request = EngineRequest(request=Request(request_id=0, user_id="u", sequence=seq),
                            block_hashes=seq.block_hashes(BLOCK), enqueue_time=0.0)
    assert scheduler.select([request], kv, 0.0).cached_tokens == 3 * BLOCK
    kv.clear()
    assert scheduler.select([request], kv, 1.0).cached_tokens == 0
    commit(kv, seq, 2.0)
    assert scheduler.select([request], kv, 2.0).cached_tokens == 3 * BLOCK


def test_index_follows_the_manager_it_is_given():
    scheduler = SRJFScheduler(fairness_lambda=0.0)
    warm, cold = (KVCacheManager(8 * BLOCK, block_size=BLOCK) for _ in range(2))
    seq = sequence(1, 4, 0, 0, unique=0)
    commit(warm, seq, 0.0)
    request = EngineRequest(request=Request(request_id=0, user_id="u", sequence=seq),
                            block_hashes=seq.block_hashes(BLOCK), enqueue_time=0.0)
    assert scheduler.select([request], warm, 0.0).cached_tokens == 4 * BLOCK
    assert scheduler.select([request], cold, 0.0).cached_tokens == 0
    assert scheduler.select([request], warm, 0.0).cached_tokens == 4 * BLOCK


def test_engine_keeps_stored_counts_current_and_drains_the_index(small_post_trace,
                                                                 h100_setup):
    """Through an engine: started, cancelled and evacuated requests all leave
    the index, and calibrations are current after every select."""
    spec = prefillonly_engine_spec().with_overrides(kv_capacity_tokens=12 * 1024)
    instance = EngineInstance(spec, get_model(h100_setup.model_name), h100_setup.cluster.gpu,
                              max_input_length=small_post_trace.max_request_tokens)
    scheduler, kv = instance.scheduler, instance.kv
    select = scheduler.select
    selects = []

    def checked_select(queue, manager, now):
        decision = select(queue, manager, now)
        assert_stored_counts_current(queue, manager)
        selects.append(decision)
        return decision

    scheduler.select = checked_select
    requests = small_post_trace.requests
    for index, request in enumerate(requests[:16]):
        instance.submit(request, now=index * 0.01)
    instance.advance_to(0.2)
    cancelled = next(r.request_id for r in instance._waiting)
    assert instance.cancel(cancelled, now=0.2) == "waiting"
    instance.drain_until()
    assert len(selects) > 10
    assert instance.num_waiting == 0
    assert_index_empty(scheduler, kv)

    for index, request in enumerate(requests[16:]):
        instance.submit(request, now=10.0 + index * 0.01)
    instance.advance_to(10.5)
    assert scheduler._entries
    instance.crash(10.5)
    assert_index_empty(scheduler, kv)
