"""Property tests for the shard partitioner and the cross-shard event merge.

The sharded engine's byte-identity rests on one law: a
:class:`~repro.simulation.sharded.ShardedEventQueue` — N per-shard heaps with
keys routed by :meth:`~repro.simulation.sharded.ShardPlan.owner` and due
events merged by ``(time, key)`` — drains in exactly the global order of a
single :class:`~repro.simulation.events.EventQueue` holding every source.
This file fuzzes that law under random event storms across random shard
counts (mirroring ``test_events_edge_cases.py``'s heap-vs-scan storm test),
and pins the partitioner/seed-stream half of the determinism contract.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.perf.runner import derive_task_seeds
from repro.simulation.events import EventQueue
from repro.simulation.sharded import ShardedEventQueue, ShardPlan


# ------------------------------------------------------------- partitioner


def test_owner_covers_every_shard_and_is_stable():
    plan = ShardPlan(4)
    owners = [plan.owner(key) for key in range(32)]
    assert set(owners) == {0, 1, 2, 3}
    # Pure function of the key: crash/recover cycles (fresh keys) rebalance,
    # but a given key's owner never moves.
    assert owners == [plan.owner(key) for key in range(32)]


def test_single_shard_owns_everything():
    plan = ShardPlan(1)
    assert all(plan.owner(key) == 0 for key in range(100))


def test_invalid_shard_count_rejected():
    with pytest.raises(ConfigurationError):
        ShardPlan(0)


def test_shard_seeds_derive_from_derive_task_seeds():
    """The per-shard RNG streams are the documented pure function of the seed."""
    plan = ShardPlan(4, base_seed=123)
    assert list(plan.shard_seeds) == derive_task_seeds(123, 4)
    # Independent of anything but (base_seed, shard): rebuilding the plan —
    # or building a wider one — never changes an existing shard's stream.
    assert ShardPlan(4, base_seed=123).shard_seeds == plan.shard_seeds
    assert ShardPlan(2, base_seed=123).shard_seeds == plan.shard_seeds[:2]
    assert ShardPlan(4, base_seed=124).shard_seeds != plan.shard_seeds


# ------------------------------------------------------- merge determinism


def test_equal_time_events_merge_by_key_across_shards():
    """Cross-shard ties resolve by the fixed sequence key, not shard order."""
    sharded = ShardedEventQueue(ShardPlan(3))
    for key in (5, 1, 4, 2, 0, 3):   # keys land on shards 2,1,1,2,0,0
        sharded.update(key, 7.0)
    assert sharded.pop_due(7.0) == [0, 1, 2, 3, 4, 5]


def test_peek_returns_global_minimum():
    sharded = ShardedEventQueue(ShardPlan(4))
    sharded.update(3, 5.0)
    sharded.update(6, 2.0)
    sharded.update(1, 9.0)
    assert sharded.peek() == (2.0, 6)
    assert sharded.next_time() == 2.0


def test_discard_routes_to_owning_shard():
    plan = ShardPlan(2)
    sharded = ShardedEventQueue(plan)
    sharded.update(2, 1.0)
    sharded.update(3, 1.0)
    sharded.discard(3)
    assert len(sharded.shard(plan.owner(3))) == 0
    assert sharded.pop_due(1.0) == [2]


# ----------------------------------------------------- hypothesis storms

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 15),
                  st.one_of(st.none(), st.floats(0, 100, allow_nan=False))),
        st.tuples(st.just("discard"), st.integers(0, 15)),
        st.tuples(st.just("pop"), st.floats(0, 100, allow_nan=False)),
    ),
    min_size=1, max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(operations=_ops, num_shards=st.integers(1, 6))
def test_sharded_merge_matches_single_queue_under_random_storms(
        operations, num_shards):
    """Random storms across random shard counts drain in the global order."""
    single = EventQueue()
    sharded = ShardedEventQueue(ShardPlan(num_shards))
    for operation in operations:
        if operation[0] == "update":
            _, key, time = operation
            single.update(key, time)
            sharded.update(key, time)
        elif operation[0] == "discard":
            _, key = operation
            single.discard(key)
            sharded.discard(key)
        else:
            _, now = operation
            assert sharded.pop_due_entries(now) == single.pop_due_entries(now)
        assert sharded.next_time() == single.next_time()
        assert sharded.peek() == single.peek()
        assert len(sharded) == len(single)
    # Final drain: whatever survived the storm leaves in identical order.
    assert sharded.pop_due(math.inf) == single.pop_due(math.inf)
