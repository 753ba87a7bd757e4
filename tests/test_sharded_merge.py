"""Tests for the shard partitioner and its seed streams.

:class:`~repro.simulation.sharded.ShardPlan` assigns each replica key to the
shard ``key % num_shards`` and derives one seed stream per shard.  These
tests pin the partitioner/seed-stream half of the determinism contract
(``docs/SHARDING.md``): ownership covers every shard and never moves for a
given key, and the streams are a pure function of ``(base_seed, shard)``.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.perf.runner import derive_task_seeds
from repro.simulation.sharded import ShardPlan


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

