"""Tests for the KV-cache manager (the engine-facing storage interface)."""

import pytest

from repro.errors import CapacityError
from repro.kvcache.block import hash_token_blocks
from repro.kvcache.manager import KVCacheManager
from repro.kvcache.offload import CPUOffloadStore


BLOCK = 16


def hashes(tokens: list[int]) -> tuple[int, ...]:
    return tuple(hash_token_blocks(tokens, BLOCK))


def make_manager(capacity_tokens: int = 64 * BLOCK, **kwargs) -> KVCacheManager:
    return KVCacheManager(capacity_tokens, block_size=BLOCK, **kwargs)


def test_lookup_misses_before_commit():
    manager = make_manager()
    request = hashes(list(range(64)))
    assert manager.lookup(request) == 0


def test_commit_then_lookup_hits():
    manager = make_manager()
    request = hashes(list(range(64)))
    lease = manager.begin_execution(request, 64, reserve_full_kv=False)
    cached = manager.finish_execution(lease)
    assert cached == 64
    assert manager.lookup(request) == 64


def test_shared_prefix_hit_across_requests():
    manager = make_manager()
    profile = list(range(48))
    first = hashes(profile + [1] * 16)
    second = hashes(profile + [2] * 16)
    lease = manager.begin_execution(first, 64, reserve_full_kv=False)
    manager.finish_execution(lease)
    assert manager.lookup(second) == 48


def test_reserve_full_kv_requires_capacity():
    manager = make_manager(capacity_tokens=4 * BLOCK)
    request = hashes(list(range(8 * BLOCK)))
    with pytest.raises(CapacityError):
        manager.begin_execution(request, 8 * BLOCK, reserve_full_kv=True)


def test_reserve_full_kv_evicts_cached_prefixes_under_pressure():
    """A long baseline request pushes other users' prefixes out of the cache."""
    manager = make_manager(capacity_tokens=8 * BLOCK)
    resident = hashes(list(range(4 * BLOCK)))
    lease = manager.begin_execution(resident, 4 * BLOCK, reserve_full_kv=False)
    manager.finish_execution(lease)
    assert manager.lookup(resident) == 4 * BLOCK

    long_request = hashes(list(range(1000, 1000 + 7 * BLOCK)))
    lease = manager.begin_execution(long_request, 7 * BLOCK, reserve_full_kv=True)
    assert manager.lookup(resident) < 4 * BLOCK
    manager.finish_execution(lease)


def test_prefillonly_execution_does_not_evict_cached_prefixes():
    """Hybrid prefilling holds no pool blocks during execution."""
    manager = make_manager(capacity_tokens=8 * BLOCK)
    resident = hashes(list(range(4 * BLOCK)))
    lease = manager.begin_execution(resident, 4 * BLOCK, reserve_full_kv=False)
    manager.finish_execution(lease)

    long_request = hashes(list(range(1000, 1000 + 7 * BLOCK)))
    lease = manager.begin_execution(long_request, 7 * BLOCK, reserve_full_kv=False)
    assert manager.lookup(resident) == 4 * BLOCK
    manager.finish_execution(lease)


def test_pinned_prefix_survives_other_commits():
    manager = make_manager(capacity_tokens=6 * BLOCK)
    shared = hashes(list(range(4 * BLOCK)))
    lease = manager.begin_execution(shared, 4 * BLOCK, reserve_full_kv=False)
    manager.finish_execution(lease)

    running = manager.begin_execution(shared, 4 * BLOCK, reserve_full_kv=False)
    assert running.cached_tokens == 4 * BLOCK
    # Another request commits and would like to evict, but the pins hold.
    other = hashes(list(range(2000, 2000 + 6 * BLOCK)))
    other_lease = manager.begin_execution(other, 6 * BLOCK, reserve_full_kv=False)
    manager.finish_execution(other_lease)
    assert manager.lookup(shared) == 4 * BLOCK
    manager.finish_execution(running)


def test_abort_caches_nothing():
    manager = make_manager()
    request = hashes(list(range(64)))
    lease = manager.begin_execution(request, 64, reserve_full_kv=False)
    assert manager.finish_execution(lease, commit=False) == 0
    assert manager.lookup(request) == 0


def test_prefix_caching_disabled():
    manager = make_manager(enable_prefix_caching=False)
    request = hashes(list(range(64)))
    lease = manager.begin_execution(request, 64, reserve_full_kv=False)
    manager.finish_execution(lease)
    assert manager.lookup(request) == 0
    assert manager.cache_version == 0


def test_suffix_discard_keeps_prefix_when_pool_too_small():
    manager = make_manager(capacity_tokens=3 * BLOCK)
    request = hashes(list(range(8 * BLOCK)))
    lease = manager.begin_execution(request, 8 * BLOCK, reserve_full_kv=False)
    cached = manager.finish_execution(lease)
    assert cached == 3 * BLOCK
    assert manager.lookup(request) == 3 * BLOCK


def test_suffix_offload_spills_to_cpu():
    offload = CPUOffloadStore(capacity_bytes=1 << 30, block_bytes=1 << 20)
    manager = make_manager(capacity_tokens=3 * BLOCK, offload_store=offload)
    request = hashes(list(range(8 * BLOCK)))
    lease = manager.begin_execution(request, 8 * BLOCK, reserve_full_kv=False)
    manager.finish_execution(lease)
    assert manager.lookup(request) == 3 * BLOCK
    assert manager.lookup_offloaded(request) == 0  # GPU prefix missing, offload holds suffix only
    assert offload.num_blocks == 5


def test_cache_version_advances_on_commit():
    manager = make_manager()
    version = manager.cache_version
    request = hashes(list(range(64)))
    lease = manager.begin_execution(request, 64, reserve_full_kv=False)
    manager.finish_execution(lease)
    assert manager.cache_version > version


def test_stats_track_hits():
    manager = make_manager()
    request = hashes(list(range(64)))
    lease = manager.begin_execution(request, 64, reserve_full_kv=False)
    manager.finish_execution(lease)
    lease = manager.begin_execution(request, 64, reserve_full_kv=False)
    manager.finish_execution(lease)
    stats = manager.stats()
    assert stats.requests == 2
    assert stats.requests_with_hit == 1
    assert 0.0 < stats.token_hit_rate < 1.0


def test_clear_resets_cache():
    manager = make_manager()
    request = hashes(list(range(64)))
    lease = manager.begin_execution(request, 64, reserve_full_kv=False)
    manager.finish_execution(lease)
    manager.clear()
    assert manager.lookup(request) == 0
    assert manager.num_cached_tokens == 0
