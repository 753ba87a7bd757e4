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

The tiered oracle does the same for two replicas whose tiered managers share
one cluster store: L1 evictions demote into the host tier, host evictions
cascade into the cluster, peers publish, drain and reclaim, fetches stage
and promote, and brownouts and outages toggle.  Its reference is a fresh
``lookup_with_tiers`` of every waiting request, and after the drain the
host's and the cluster's change records must be empty too.

Runs under the shared ``oracle-run`` hypothesis profile (``tests/conftest.py``).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.engine import EngineInstance, prefillonly_engine_spec
from repro.core.jct import JCTEstimator
from repro.core.request_state import EngineRequest
from repro.core.scheduler import SRJFScheduler
from repro.errors import CapacityError
from repro.hardware.interconnect import Interconnect
from repro.kvcache.manager import KVCacheManager
from repro.kvcache.offload import CPUOffloadStore
from repro.kvcache.tiers import ClusterPrefixStore, TieredPrefixStore, make_promotion_policy
from repro.model.config import get_model
from repro.workloads.trace import Request, TokenSegment, TokenSequence

BLOCK = 16


def reference_select(queue, kv, now, fairness):
    """Brute force: a fresh root lookup for every waiting request."""
    best = None
    for request in queue:
        cached = kv.lookup(request.block_hashes)
        base = JCTEstimator.proxy(request.num_tokens, cached)
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
    kv.finish_execution(lease, now=now)


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
        st.tuples(st.just("finish"), st.integers(0, 7)),
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
       reserve_full_kv=st.booleans())
def test_select_matches_brute_force_reference(ops, capacity_blocks, fairness,
                                              reserve_full_kv):
    kv = KVCacheManager(capacity_blocks * BLOCK, block_size=BLOCK)
    scheduler = SRJFScheduler(fairness_lambda=fairness)
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
            expected = reference_select(queue, kv, now, fairness)
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
            kv.finish_execution(lease, now=now)
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
        kv.finish_execution(lease, now=now)
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


# ------------------------------------------------------------ tiered managers

BLOCK_BYTES = 1024
HOST_LINK = Interconnect(name="oracle-host", bandwidth=1e8, latency=2e-3)
CLUSTER_LINK = Interconnect(name="oracle-cluster", bandwidth=5e7, latency=5e-3)
REPLICAS = ("a", "b")


def tier_reference(request, kv, now, fairness):
    """(score, cached tokens, base score) from a fresh tiered lookup."""
    lookup = kv.lookup_with_tiers(request.block_hashes)
    cached = lookup.total_tokens
    base = JCTEstimator.proxy(request.num_tokens, cached)
    base += lookup.penalty_tokens
    return base - fairness * request.queueing_time(now), cached, base


def assert_tier_records_empty(scheduler, kv):
    assert_index_empty(scheduler, kv)
    tiers = kv.tiers
    if tiers.host is not None:
        assert tiers.host._changed == set()
    if tiers.cluster is not None:
        subscription = tiers.cluster._subscribers.get(id(scheduler._frontier))
        assert subscription is None or subscription[1] == set()


def tiered_replica(name, capacity_blocks, host_blocks, cluster, promotion):
    host = None
    if host_blocks:
        host = CPUOffloadStore(capacity_bytes=host_blocks * BLOCK_BYTES,
                               block_bytes=BLOCK_BYTES, link=HOST_LINK)
    tiers = TieredPrefixStore(replica=name, block_size=BLOCK, block_bytes=BLOCK_BYTES,
                              host=host, cluster=cluster,
                              policy=make_promotion_policy(promotion),
                              compute_tokens_per_second=1000.0)
    return KVCacheManager(capacity_blocks * BLOCK, block_size=BLOCK, tiers=tiers)


replica = st.integers(0, len(REPLICAS) - 1)
# Submits, queue-preserving selects and commits dominate, so waiting requests
# live through many demotions, publishes and reclaims between selects.
tier_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), replica, shape, st.booleans(), ahead),
        st.tuples(st.just("submit"), replica, shape, st.booleans(), ahead),
        st.tuples(st.just("submit"), replica, shape, st.booleans(), ahead),
        st.tuples(st.just("submit"), replica, shape, st.booleans(), ahead),
        st.tuples(st.just("select"), replica, st.just(False)),
        st.tuples(st.just("select"), replica, st.just(False)),
        st.tuples(st.just("select"), replica, st.booleans()),
        st.tuples(st.just("finish"), replica, st.integers(0, 7)),
        st.tuples(st.just("commit"), replica, shape),
        st.tuples(st.just("commit"), replica, shape),
        st.tuples(st.just("commit"), replica, shape),
        st.tuples(st.just("prefetch"), replica, shape),
        st.tuples(st.just("drain"), replica),
        st.tuples(st.just("discard"), st.integers(0, 31)),
        st.tuples(st.just("discard"), st.integers(0, 31)),
        st.tuples(st.just("cancel"), replica, st.integers(0, 15)),
        st.tuples(st.just("clear"), replica),
        st.tuples(st.just("brownout"), st.sampled_from([1.0, 3.0, 0.5])),
        st.tuples(st.just("outage"),),
        st.tuples(st.just("tick"), st.sampled_from([0.0, 0.001, 0.25, 1.0])),
    ),
    min_size=20,
    max_size=60,
)


@settings.get_profile("oracle-run")
@given(ops=tier_ops, capacity_blocks=st.integers(2, 6),
       host_blocks=st.sampled_from([0, 3, 6, 12]),
       cluster_blocks=st.sampled_from([0, 0, 7, 14, 32]),
       promotion=st.sampled_from(["never", "never", "on-nth-hit", "always"]),
       fairness=st.sampled_from([0.0, 500.0, 2.5]))
def test_tiered_select_matches_brute_force_reference(ops, capacity_blocks, host_blocks,
                                                     cluster_blocks, promotion, fairness):
    cluster = None
    if cluster_blocks:
        cluster = ClusterPrefixStore(capacity_bytes=cluster_blocks * BLOCK_BYTES,
                                     block_bytes=BLOCK_BYTES, link=CLUSTER_LINK)
    kvs = [tiered_replica(name, capacity_blocks, host_blocks, cluster, promotion)
           for name in REPLICAS]
    schedulers = [SRJFScheduler(fairness_lambda=fairness) for _ in REPLICAS]
    queues: list[list[EngineRequest]] = [[] for _ in REPLICAS]
    running: list[list] = [[] for _ in REPLICAS]
    now = 0.0
    next_id = 0

    def leave(r, request):
        queues[r].remove(request)
        schedulers[r].on_remove(request)

    for op in ops:
        kind = op[0]
        if kind == "brownout":
            for kv in kvs:
                kv.set_transfer_cost_multiplier(op[1])
            if cluster is not None:
                cluster.cost_multiplier = op[1]
            continue
        if kind == "outage":
            if cluster is not None:
                cluster.set_available(not cluster.available)
            continue
        if kind == "discard":
            # An owner reclaims its entry, as a commit overflow or a fetch does.
            resident = cluster.resident_hashes() if cluster is not None else []
            if resident:
                content_hash = resident[op[1] % len(resident)]
                cluster.discard_owned(cluster.owner_of(content_hash), content_hash)
            continue
        if kind == "tick":
            now += op[1]
            continue
        r = op[1]
        kv, scheduler, queue = kvs[r], schedulers[r], queues[r]
        if kind == "submit":
            seq = sequence(*op[2], unique=next_id)
            request = EngineRequest(
                request=Request(request_id=next_id, user_id=f"u{op[2][0]}", sequence=seq),
                block_hashes=seq.block_hashes(BLOCK), enqueue_time=now + op[4],
            )
            next_id += 1
            if op[3]:
                scheduler.on_submit(request, kv, now)
            queue.append(request)
        elif kind == "select":
            decision = scheduler.select(queue, kv, now)
            if not queue:
                assert decision is None
                continue
            # Brute force: a fresh lookup_with_tiers for every waiting request.
            expected = [tier_reference(request, kv, now, fairness)
                        for request in queue]
            best = min(range(len(queue)),
                       key=lambda i: (expected[i][0], queue[i].request_id))
            assert decision.request is queue[best]
            assert decision.score.hex() == expected[best][0].hex()
            assert decision.cached_tokens == expected[best][1]
            for request, (_, cached, base) in zip(queue, expected):
                stored = request.last_calibration()
                assert stored[1] == cached
                assert stored[2].hex() == base.hex()
            if op[2]:
                request = decision.request
                kv.fetch_tiers(request.block_hashes, now=now)
                running[r].append(kv.begin_execution(
                    request.block_hashes, request.num_tokens, reserve_full_kv=False, now=now))
                leave(r, request)
        elif kind == "finish" and running[r]:
            lease = running[r].pop(op[2] % len(running[r]))
            kv.finish_execution(lease, now=now)
        elif kind == "commit":
            commit(kv, sequence(*op[2], unique=-1), now)
        elif kind == "prefetch":
            kv.prefetch_tiers(sequence(*op[2], unique=-1).block_hashes(BLOCK), now=now)
        elif kind == "drain" and not running[r]:
            kv.drain()
        elif kind == "cancel" and queue:
            leave(r, queue[op[2] % len(queue)])
        elif kind == "clear" and not running[r]:
            kv.clear()

    for r, kv in enumerate(kvs):
        for request in list(queues[r]):
            leave(r, request)
        assert_tier_records_empty(schedulers[r], kv)
    for r, kv in enumerate(kvs):
        for lease in running[r]:
            kv.finish_execution(lease, now=now)
        commit(kv, sequence(0, 5, 1, 40, unique=-2), now)
        kv.drain()
    for r, kv in enumerate(kvs):
        assert_tier_records_empty(schedulers[r], kv)


def tiered_pair():
    """Two tiered managers sharing one cluster store, and a scheduler on the first."""
    cluster = ClusterPrefixStore(capacity_bytes=64 * BLOCK_BYTES, block_bytes=BLOCK_BYTES,
                                 link=CLUSTER_LINK)
    local, peer = (tiered_replica(name, 8, 4, cluster, "never") for name in REPLICAS)
    return cluster, local, peer, SRJFScheduler(fairness_lambda=0.0)


def waiting(request_id, seq):
    return EngineRequest(request=Request(request_id=request_id, user_id="u", sequence=seq),
                         block_hashes=seq.block_hashes(BLOCK), enqueue_time=0.0)


def count_tier_lookups(kv):
    calls = []
    lookup = kv.lookup_with_tiers

    def counted(block_hashes):
        calls.append(block_hashes)
        return lookup(block_hashes)

    kv.lookup_with_tiers = counted
    return calls


def test_an_unwatched_cluster_publish_re_derives_nobody():
    cluster, local, _, scheduler = tiered_pair()
    queue = [waiting(i, sequence(i % 2, 3, 0, 8, unique=i)) for i in range(3)]
    scheduler.select(queue, local, 0.0)
    calls = count_tier_lookups(local)
    cluster.publish("b", sequence(1, 6, 2, 0, unique=99).block_hashes(BLOCK)[4:])
    scheduler.select(queue, local, 0.0)
    assert calls == []


def test_a_peer_publish_of_a_first_missing_block_re_ranks_that_request():
    cluster, local, peer, scheduler = tiered_pair()
    long_seq, short_seq = sequence(0, 6, 0, 0, unique=0), sequence(1, 2, 0, 0, unique=1)
    queue = [waiting(0, long_seq), waiting(1, short_seq)]
    assert scheduler.select(queue, local, 0.0).request.request_id == 1
    calls = count_tier_lookups(local)
    # The peer computed the long prefix and drained it into the cluster store.
    commit(peer, long_seq, 0.0)
    peer.drain()
    decision = scheduler.select(queue, local, 0.0)
    assert calls == [long_seq.block_hashes(BLOCK)]
    assert decision.request.request_id == 0
    assert decision.cached_tokens == 6 * BLOCK


def test_a_host_eviction_re_derives_the_request_whose_continuation_it_held():
    # No cluster tier: the host store's own record is the only trace of it.
    kv = tiered_replica("a", 4, 2, None, "never")
    held, other = sequence(0, 2, 0, 0, unique=0), sequence(1, 2, 0, 0, unique=1)
    kv.tiers.host.store(held.block_hashes(BLOCK))
    scheduler = SRJFScheduler(fairness_lambda=0.0)
    queue = [waiting(0, held)]
    assert scheduler.select(queue, kv, 0.0).cached_tokens == 2 * BLOCK
    kv.tiers.host.store(other.block_hashes(BLOCK))  # evicts both held blocks
    assert scheduler.select(queue, kv, 0.0).cached_tokens == 0
