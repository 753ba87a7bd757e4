"""Tests for the radix-tree prefix cache."""

import pytest

from repro.kvcache.allocator import BlockAllocator
from repro.kvcache.block import hash_token_blocks
from repro.kvcache.prefix_tree import RadixPrefixCache


BLOCK = 16


def make_cache(num_blocks: int = 32) -> tuple[RadixPrefixCache, BlockAllocator]:
    allocator = BlockAllocator(num_blocks=num_blocks, block_size=BLOCK)
    return RadixPrefixCache(allocator), allocator


def hashes(tokens: list[int]) -> list[int]:
    return hash_token_blocks(tokens, BLOCK)


def test_insert_then_match():
    cache, _ = make_cache()
    request = hashes(list(range(64)))
    inserted = cache.insert(request)
    assert inserted == 4
    match = cache.match(request)
    assert match.num_blocks == 4
    assert match.num_tokens == 64


def test_partial_prefix_match():
    cache, _ = make_cache()
    shared = list(range(48))
    cache.insert(hashes(shared + [1] * 16))
    other = hashes(shared + [2] * 16)
    match = cache.match(other)
    assert match.num_blocks == 3  # the shared 48 tokens only


def test_match_length_does_not_touch_lru():
    cache, _ = make_cache(num_blocks=4)
    old = hashes(list(range(64)))
    cache.insert(old, now=1.0)
    # A read-only probe at a later time must not refresh the LRU timestamps.
    cache.match_length(old)
    new = hashes(list(range(1000, 1064)))
    cache.insert(new, now=2.0)
    assert cache.match_length(new) == 4
    assert cache.match_length(old) == 0


def test_lru_eviction_prefers_oldest_leaf():
    cache, allocator = make_cache(num_blocks=8)
    first = hashes(list(range(64)))          # 4 blocks
    second = hashes(list(range(100, 164)))   # 4 blocks
    cache.insert(first, now=1.0)
    cache.insert(second, now=2.0)
    assert allocator.num_free_blocks == 0
    third = hashes(list(range(200, 232)))    # 2 blocks, forces eviction
    cache.insert(third, now=3.0)
    # The oldest entry (first) lost blocks; the newest are intact.
    assert cache.match_length(third) == 2
    assert cache.match_length(second) == 4
    assert cache.match_length(first) < 4


def test_eviction_removes_leaves_first():
    cache, _ = make_cache(num_blocks=8)
    request = hashes(list(range(64)))
    cache.insert(request)
    evicted = cache.evict_blocks(1)
    assert evicted == 1
    # The prefix shrinks from the tail, never from the head.
    assert cache.match_length(request) == 3


def test_pinned_blocks_are_not_evicted():
    cache, _ = make_cache(num_blocks=4)
    request = hashes(list(range(64)))
    cache.insert(request)
    pinned = cache.pin_prefix(request, cache.match_length(request))
    assert cache.evict_blocks(4) == 0
    cache.unpin(pinned)
    assert cache.evict_blocks(4) == 4


def test_insert_without_eviction_stops_when_full():
    # An empty tree has nothing to evict, so the insert keeps what fits.
    cache, _ = make_cache(num_blocks=2)
    request = hashes(list(range(64)))  # needs 4 blocks
    resident = cache.insert(request)
    assert resident == 2
    assert cache.num_cached_blocks == 2


def test_version_changes_on_insert_and_evict():
    cache, _ = make_cache()
    version0 = cache.version
    cache.insert(hashes(list(range(32))))
    version1 = cache.version
    assert version1 > version0
    cache.evict_blocks(1)
    assert cache.version > version1


def test_version_unchanged_by_lookup():
    cache, _ = make_cache()
    request = hashes(list(range(32)))
    cache.insert(request)
    version = cache.version
    cache.match(request)
    cache.match_length(request)
    assert cache.version == version


def test_reinserting_existing_prefix_allocates_nothing():
    cache, allocator = make_cache()
    request = hashes(list(range(64)))
    cache.insert(request)
    free_before = allocator.num_free_blocks
    cache.insert(request)
    assert allocator.num_free_blocks == free_before


def test_clear_frees_all_blocks():
    cache, allocator = make_cache()
    cache.insert(hashes(list(range(64))))
    cache.clear()
    assert cache.num_cached_blocks == 0
    assert allocator.num_free_blocks == allocator.num_blocks


def test_stats_counters():
    cache, _ = make_cache()
    request = hashes(list(range(32)))
    cache.match(request)          # miss
    cache.insert(request)
    cache.match(request)          # hits
    stats = cache.stats
    assert stats["insertions"] == 2
    assert stats["block_hits"] == 2
    assert stats["block_misses"] >= 1


def test_an_insert_gives_only_its_leaf_a_heap_entry():
    cache, _ = make_cache(num_blocks=64)
    chain = hashes(list(range(40 * BLOCK)))
    assert cache.insert(chain) == 40
    # Only leaves are eviction candidates, so the 39 interior blocks need none.
    assert list(cache.snapshot().heap_keys) == [chain[-1]]


def test_evicting_a_leaf_gives_its_parent_a_heap_entry():
    cache, _ = make_cache(num_blocks=64)
    chain = hashes(list(range(40 * BLOCK)))
    newer = hashes(list(range(1000, 1000 + 2 * BLOCK)))
    cache.insert(chain, now=1.0)
    cache.insert(newer, now=2.0)
    assert cache.evict_blocks(1) == 1
    # The victim's parent is a leaf now; the heap holds exactly the leaves.
    assert set(cache.snapshot().heap_keys) == {chain[-2], newer[-1]}


def test_an_insert_short_of_k_blocks_evicts_them_in_one_pass():
    cache, allocator = make_cache(num_blocks=8)
    chains = [hashes(list(range(start, start + 2 * BLOCK))) for start in (0, 100, 200, 300)]
    for now, chain in enumerate(chains, start=1):
        cache.insert(chain, now=float(now))
    assert allocator.num_free_blocks == 0
    victims = []
    cache.on_evict = lambda hashes: victims.append(tuple(hashes))
    passes = []
    evict_blocks = cache.evict_blocks
    cache.evict_blocks = lambda count: passes.append(count) or evict_blocks(count)

    assert cache.insert(hashes(list(range(400, 400 + 3 * BLOCK))), now=5.0) == 3
    assert passes == [3]
    # LRU order: the oldest chain's leaf (t=1), then its parent, a leaf now
    # and still stamped t=1, then the next-oldest chain's leaf (t=2), handed
    # to the hook in one call for the one pass.
    assert victims == [(chains[0][1], chains[0][0], chains[1][1])]


def test_reinserting_a_cached_chain_stamps_its_deepest_block():
    cache, allocator = make_cache(num_blocks=3)
    old = hashes(list(range(2 * BLOCK)))
    other = hashes(list(range(100, 100 + BLOCK)))
    cache.insert(old, now=0.0)
    cache.insert(other, now=1.0)
    # Nothing to allocate, but the chain's deepest block is used again.
    assert cache.insert(old, now=2.0) == 2
    assert allocator.num_free_blocks == 0
    cache.insert(hashes(list(range(200, 200 + BLOCK))), now=3.0)
    # The re-stamped chain outlives the block last used at t=1.
    assert cache.match_length(old) == 2
    assert cache.match_length(other) == 0


def test_a_pinned_frontier_keeps_its_ancestors_unevictable():
    cache, _ = make_cache()
    chain = hashes(list(range(3 * BLOCK)))
    other = hashes(list(range(100, 100 + BLOCK)))
    cache.insert(chain)
    cache.insert(other)
    frontier = cache.pin_prefix(chain, 3)
    # Only the other chain's block can go: evicting the pinned frontier's
    # ancestors would orphan it.
    assert cache.num_evictable_blocks == 1
    cache.unpin(frontier)
    assert cache.num_evictable_blocks == 4


def test_a_leaf_touched_after_its_heap_entry_is_evicted_by_its_new_stamp():
    cache, _ = make_cache(num_blocks=3)
    first, second, third = (
        hashes(list(range(start, start + BLOCK))) for start in (0, 100, 200)
    )
    cache.insert(first, now=0.0)
    cache.insert(second, now=1.0)
    cache.insert(third, now=2.0)
    # The match moves `first` past `second`, leaving its heap entry keyed t=0.
    cache.match(first, now=3.0)
    cache.insert(hashes(list(range(300, 300 + BLOCK))), now=4.0)
    assert cache.match_length(first) == 1
    assert cache.match_length(second) == 0
