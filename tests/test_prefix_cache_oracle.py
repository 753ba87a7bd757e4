"""Differential oracle for the radix prefix cache and its LRU eviction order.

:class:`ReferenceRadixCache` is the specification, written for clarity, not
speed: per-block dicts of parent, children, last access, pin count and
creation sequence, and each victim picked by a full scan for the unpinned
leaf with the smallest ``(last_access, seq)``.  Hypothesis drives the same op
sequences through it and the production
:class:`~repro.kvcache.prefix_tree.RadixPrefixCache`, whose lazy heap must
pick the very same victims in the very same order.  The ops are inserts (with
a new-block cap and with eviction on or off), touching and read-only matches,
hinted ``match_length`` probes, pins and unpins, explicit evictions and
clears, over overlapping hash chains and a 3-10 block pool.  After
every op the return values, the stats counters, the resident hashes and the
victims reported through ``on_evict`` must agree.

Runs under the shared ``oracle-run`` hypothesis profile (``tests/conftest.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError
from repro.kvcache.allocator import BlockAllocator
from repro.kvcache.prefix_tree import RadixPrefixCache

BLOCK = 16


class ReferenceRadixCache:
    """Full-scan LRU radix cache over chained block hashes."""

    def __init__(self, capacity_blocks: int) -> None:
        self.capacity = capacity_blocks
        self.parent: dict[int, int | None] = {}
        self.children: dict[int, set[int]] = {}
        self.last_access: dict[int, float] = {}
        self.pins: dict[int, int] = {}
        self.seq: dict[int, int] = {}
        self.next_seq = 0
        self.stats = {"block_hits": 0, "block_misses": 0, "insertions": 0, "evictions": 0}
        self.victims: list[int] = []

    def cached_prefix(self, chain) -> list[int]:
        prefix = []
        for block in chain:
            if block not in self.parent:
                break
            prefix.append(block)
        return prefix

    def touch(self, block: int, now: float) -> None:
        self.last_access[block] = max(self.last_access[block], now)

    def match(self, chain, now: float, touch: bool) -> int:
        prefix = self.cached_prefix(chain)
        self.stats["block_hits"] += len(prefix)
        self.stats["block_misses"] += len(prefix) < len(chain)
        if touch:
            for block in prefix:
                self.touch(block, now)
        return len(prefix)

    def insert(self, chain, now: float, max_new_blocks: int | None,
               allow_eviction: bool) -> int:
        path: list[int] = []
        new_blocks = 0
        for block in chain:
            if block in self.parent:
                self.touch(block, now)
            else:
                if max_new_blocks is not None and new_blocks >= max_new_blocks:
                    break
                if len(self.parent) == self.capacity and not (
                        allow_eviction and self.evict_blocks(1)):
                    break
                parent = path[-1] if path else None
                self.parent[block] = parent
                if parent is not None:
                    self.children[parent].add(block)
                self.children[block] = set()
                self.last_access[block] = now
                self.pins[block] = 0
                self.seq[block] = self.next_seq
                self.next_seq += 1
                self.stats["insertions"] += 1
                new_blocks += 1
            # The insert path stays pinned until the insert ends, so its own
            # evictions cannot take the request's ancestors.
            self.pins[block] += 1
            path.append(block)
        for block in path:
            self.pins[block] -= 1
        return len(path)

    def evict_blocks(self, count: int) -> int:
        evicted = 0
        while evicted < count:
            leaves = [block for block in self.parent
                      if not self.children[block] and not self.pins[block]]
            if not leaves:
                break
            victim = min(leaves, key=lambda block: (self.last_access[block], self.seq[block]))
            parent = self.parent.pop(victim)
            if parent is not None:
                self.children[parent].discard(victim)
            for table in (self.children, self.last_access, self.pins, self.seq):
                del table[victim]
            self.stats["evictions"] += 1
            self.victims.append(victim)
            evicted += 1
        return evicted

    def pin_prefix(self, chain) -> list[int]:
        prefix = self.cached_prefix(chain)
        for block in prefix:
            self.pins[block] += 1
        return prefix

    def unpin(self, blocks) -> None:
        for block in blocks:
            self.pins[block] -= 1

    def clear(self) -> None:
        for table in (self.parent, self.children, self.last_access, self.pins, self.seq):
            table.clear()


def chain(path) -> tuple[int, ...]:
    """Chained hashes of a trie path: each block's hash encodes its whole prefix."""
    hashes, value = [], 0
    for step in path:
        value = value * 4 + step + 1
        hashes.append(value)
    return tuple(hashes)


# Each example draws a few trie paths that often share a prefix, and every op
# names one of them, so the same chains are inserted, touched and evicted
# again and again, like one user's requests.
paths = st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=4),
                 min_size=3, max_size=8)
chain_index = st.integers(0, 7)
# The clock advances before each op by 0 or 1, so timestamps both tie (the
# creation sequence breaks those) and separate (recency decides those).
# Plain inserts and touching matches are drawn several times as often as the
# other ops, so most examples build a long LRU history between clears.
insert = st.tuples(st.just("insert"), chain_index, st.just(None), st.just(True))
touch = st.tuples(st.just("match"), chain_index, st.just(True))
ops = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1.0]),
        st.one_of(
            insert, insert, insert, touch, touch,
            st.tuples(st.just("insert"), chain_index,
                      st.one_of(st.none(), st.integers(0, 3)), st.booleans()),
            st.tuples(st.just("match"), chain_index, st.booleans()),
            st.tuples(st.just("match_length"), chain_index, st.integers(0, 7)),
            st.tuples(st.just("pin"), chain_index),
            st.tuples(st.just("unpin"), st.integers(0, 7)),
            st.tuples(st.just("evict"), st.integers(0, 4)),
            st.tuples(st.just("clear")),
        ),
    ),
    min_size=20,
    max_size=80,
)


@settings.get_profile("oracle-run")
@given(paths=paths, ops=ops, capacity=st.integers(3, 10))
def test_radix_cache_matches_reference(paths, ops, capacity):
    chains = [chain(path) for path in paths]
    cache = RadixPrefixCache(BlockAllocator(capacity, BLOCK))
    victims: list[tuple[int, int]] = []
    cache.on_evict = lambda content_hash, num_tokens: victims.append((content_hash, num_tokens))
    reference = ReferenceRadixCache(capacity)
    pins: list[tuple[list, list[int]]] = []
    now = 0.0

    for tick, op in ops:
        now += tick
        kind = op[0]
        if kind in ("insert", "match", "match_length", "pin"):
            hashes = chains[op[1] % len(chains)]
        if kind == "insert":
            resident = cache.insert(hashes, block_size=BLOCK, now=now,
                                    max_new_blocks=op[2], allow_eviction=op[3])
            assert resident == reference.insert(hashes, now, op[2], op[3])
        elif kind == "match":
            match = cache.match(hashes, now=now, touch=op[2])
            expected = reference.match(hashes, now, op[2])
            assert (match.num_blocks, match.num_tokens) == (expected, expected * BLOCK)
            assert [block.content_hash for block in match.blocks] == list(hashes[:expected])
        elif kind == "match_length":
            assert cache.match_length(hashes, op[2]) == len(reference.cached_prefix(hashes))
        elif kind == "pin":
            blocks = cache.pin_prefix(hashes)
            expected = reference.pin_prefix(hashes)
            assert [block.content_hash for block in blocks] == expected
            pins.append((blocks, expected))
        elif kind == "unpin" and pins:
            blocks, expected = pins.pop(op[1] % len(pins))
            cache.unpin(blocks)
            reference.unpin(expected)
        elif kind == "evict":
            assert cache.evict_blocks(op[1]) == reference.evict_blocks(op[1])
        elif kind == "clear":
            if any(reference.pins.values()):
                with pytest.raises(AllocationError):
                    cache.clear()
            else:
                cache.clear()
                reference.clear()

        assert cache.stats == reference.stats
        assert set(cache.resident_hashes()) == set(reference.parent)
        assert victims == [(victim, BLOCK) for victim in reference.victims]
        assert cache.num_evictable_blocks == sum(
            1 for count in reference.pins.values() if not count
        )
