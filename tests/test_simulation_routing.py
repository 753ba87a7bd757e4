"""Tests for request routing."""

import pytest

from repro.errors import UnknownNameError
from repro.simulation.routing import (
    LeastLoadedRouter,
    PrefixAffinityRouter,
    UserIdRouter,
    make_router,
)
from repro.workloads.trace import Request, TokenSegment, TokenSequence


def make_request(request_id: int, user: str, content_id: int = 1) -> Request:
    return Request(request_id=request_id, user_id=user,
                   sequence=TokenSequence([TokenSegment(content_id, 100)]))


def test_user_id_router_is_sticky():
    router = UserIdRouter(num_instances=2)
    first = router.route(make_request(0, "alice"), [0, 0])
    for i in range(5):
        assert router.route(make_request(i + 1, "alice"), [10, 0]) == first


def test_user_id_router_round_robins_users():
    router = UserIdRouter(num_instances=2)
    targets = [router.route(make_request(i, f"user-{i}"), [0, 0]) for i in range(4)]
    assert targets == [0, 1, 0, 1]


def test_user_id_router_assignments_exposed():
    router = UserIdRouter(num_instances=3)
    router.route(make_request(0, "a"), [0, 0, 0])
    router.route(make_request(1, "b"), [0, 0, 0])
    assert router.assignments == {"a": 0, "b": 1}


def test_least_loaded_router_prefers_short_queue():
    router = LeastLoadedRouter(num_instances=3)
    assert router.route(make_request(0, "x"), [4, 1, 7]) == 1


def test_router_requires_positive_instances():
    with pytest.raises(ValueError):
        UserIdRouter(num_instances=0)


def test_user_id_router_resize_drops_out_of_range_assignments():
    router = UserIdRouter(num_instances=3)
    for index in range(3):
        router.route(make_request(index, f"user-{index}"), [0, 0, 0])
    router.resize(2)
    assert router.assignments == {"user-0": 0, "user-1": 1}
    # The dropped user reassigns round-robin within the new range.
    assert router.route(make_request(9, "user-2"), [0, 0]) < 2


class _FakeKV:
    def __init__(self, hit_tokens):
        self._hit_tokens = hit_tokens

    def lookup(self, block_hashes):
        return self._hit_tokens


class _FakeInstance:
    def __init__(self, hit_tokens, block_size=256):
        from repro.core.engine import prefillonly_engine_spec

        self.spec = prefillonly_engine_spec(kv_block_size=block_size)
        self.kv = _FakeKV(hit_tokens)


def test_prefix_affinity_router_follows_the_hottest_cache():
    router = PrefixAffinityRouter(num_instances=2, queue_penalty_tokens=0.0)
    router.observe_instances([_FakeInstance(0), _FakeInstance(512)])
    assert router.route(make_request(0, "alice"), [0, 0]) == 1


def test_prefix_affinity_router_penalises_deep_queues():
    router = PrefixAffinityRouter(num_instances=2, queue_penalty_tokens=512.0)
    router.observe_instances([_FakeInstance(0), _FakeInstance(512)])
    # Replica 1 has the prefix but its queue penalty cancels the advantage;
    # replica 0 wins on load.
    assert router.route(make_request(0, "alice"), [0, 2]) == 0


def test_prefix_affinity_router_sticky_fallback_on_cold_caches():
    router = PrefixAffinityRouter(num_instances=2)
    router.observe_instances([_FakeInstance(0), _FakeInstance(0)])
    first = router.route(make_request(0, "alice"), [0, 0])
    assert router.route(make_request(1, "alice"), [0, 0]) == first
    assert router.route(make_request(2, "bob"), [0, 0]) != first


def test_prefix_affinity_router_unbound_degrades_to_sticky():
    router = PrefixAffinityRouter(num_instances=3)
    targets = {router.route(make_request(i, f"user-{i}"), [0, 0, 0]) for i in range(3)}
    assert targets == {0, 1, 2}


def test_make_router_registry():
    assert isinstance(make_router("user-id", 2), UserIdRouter)
    assert isinstance(make_router("least-loaded", 2), LeastLoadedRouter)
    assert isinstance(make_router("prefix-affinity", 2), PrefixAffinityRouter)
    with pytest.raises(UnknownNameError):
        make_router("round-trip", 2)
