"""Differential oracle for the radix prefix cache and its LRU eviction order.

:class:`ReferenceRadixCache` is the specification, written for clarity, not
speed: per-block dicts of parent, children, last access, pin count and
creation sequence, and each victim picked by a full scan for the unpinned
leaf with the smallest ``(last_access, seq)``.  Hypothesis drives the same op
sequences through it and the production
:class:`~repro.kvcache.prefix_tree.RadixPrefixCache`, whose lazy heap must
pick the very same victims in the very same order.  The ops are inserts
(which evict to make room), matches (which stamp), read-only hinted
``match_length`` probes, pins and unpins, explicit evictions and clears, over
overlapping hash chains and a 3-10 block pool.  An insert, match or pin may
act on a prefix of its chain, so the ops on one long chain's prefixes split
its runs mid-run.  After every op the return values, the stats counters, the
resident hashes and the victims reported through ``on_evict`` must agree,
and so must every leaf's LRU key ``(last_access, seq)``: the eviction order
of the leaves that exist now, including a parent run that just inherited its
last child's stamp.

The reference stamps and pins every block of a chain; the production cache
keeps runs of blocks, stamps and pins only the chain's frontier (splitting
its run when the frontier is mid-run) and folds each victim's timestamp into
its parent.  Where the two APIs differ, a match or pin returns the run whose
tail is the frontier block, which must be the last block of the reference's
prefix.

Runs under the shared ``oracle-run`` hypothesis profile (``tests/conftest.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

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
        #: Optional hook fired with each victim as it leaves, one block at a
        #: time (``tests/test_tier_cascade_oracle.py`` demotes through it).
        self.on_evict = None

    def cached_prefix(self, chain) -> list[int]:
        prefix = []
        for block in chain:
            if block not in self.parent:
                break
            prefix.append(block)
        return prefix

    def touch(self, block: int, now: float) -> None:
        self.last_access[block] = max(self.last_access[block], now)

    def match(self, chain, now: float) -> int:
        prefix = self.cached_prefix(chain)
        self.stats["block_hits"] += len(prefix)
        self.stats["block_misses"] += len(prefix) < len(chain)
        for block in prefix:
            self.touch(block, now)
        return len(prefix)

    def insert(self, chain, now: float) -> int:
        path: list[int] = []
        for block in chain:
            if block in self.parent:
                self.touch(block, now)
            else:
                if len(self.parent) == self.capacity and not self.evict_blocks(1):
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
            if self.on_evict is not None:
                self.on_evict(victim)
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


# Each example draws one long trie path and a few short ones that often share
# a prefix, and every op names one of them, so the same chains are inserted,
# touched and evicted again and again, like one user's requests.
paths = st.tuples(
    st.lists(st.integers(0, 2), min_size=4, max_size=8),
    st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=4),
             min_size=2, max_size=7),
).map(lambda drawn: [drawn[0], *drawn[1]])
chain_index = st.integers(0, 7)
# An insert, match or pin may act on a prefix of its chain (None: the whole
# chain), so ops on one chain's prefixes split its runs mid-run.
prefix_length = st.one_of(st.none(), st.integers(1, 8))
# The clock advances before each op by 0 or 1, so timestamps both tie (the
# creation sequence breaks those) and separate (recency decides those).
# Inserts and matches are drawn several times as often as the other ops, so
# most examples build a long LRU history between clears.
insert = st.tuples(st.just("insert"), chain_index, prefix_length)
match = st.tuples(st.just("match"), chain_index, prefix_length)
ops = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1.0]),
        st.one_of(
            insert, insert, insert, insert, match, match, match,
            st.tuples(st.just("match_length"), chain_index, st.integers(0, 7)),
            st.tuples(st.just("pin"), chain_index, prefix_length),
            st.tuples(st.just("unpin"), st.integers(0, 7)),
            st.tuples(st.just("evict"), st.integers(0, 4)),
            st.tuples(st.just("clear")),
        ),
    ),
    min_size=20,
    max_size=80,
)


def last(hashes) -> int | None:
    return hashes[-1] if hashes else None


@settings.get_profile("oracle-run")
@given(paths=paths, ops=ops, capacity=st.integers(3, 10))
# The eviction stamp fold within a run: a match of (1, 5) stamps only 5, and
# once 5 is evicted, 1 must inherit its t=1 stamp and outlive the older 2.
# Without the fold, 1 keeps its t=0 stamp and is evicted before 2.
@example(
    paths=[[0, 0], [1], [2]],
    ops=[(0.0, ("insert", 0, None)), (0.0, ("insert", 1, None)),
         (0.0, ("pin", 1, None)), (1.0, ("match", 0, None)), (0.0, ("evict", 1)),
         (0.0, ("unpin", 0)), (0.0, ("evict", 1))],
    capacity=3,
)
# The eviction stamp fold across runs: a match of (1, 5) at t=0 splits the
# run (1, 5, 21), a match at t=2 stamps only 21, and once 21 is evicted, the
# run (1, 5) must inherit its t=2 stamp and outlive 2, stamped t=1.  Without
# the fold, 5 keeps its t=0 stamp and is evicted before 2.
@example(
    paths=[[0, 0], [1], [0, 0, 0]],
    ops=[(0.0, ("insert", 2, None)), (0.0, ("match", 0, None)), (1.0, ("insert", 1, None)),
         (1.0, ("match", 2, None)), (0.0, ("pin", 1, None)), (0.0, ("evict", 1)),
         (0.0, ("unpin", 0)), (0.0, ("evict", 1))],
    capacity=4,
)
# A split under a pin, then partial evictions: pinning the 2-block prefix of
# a 4-block run splits it, and with the pin held the passes take one block
# from the other run's tail, then that run's last block and the split run's
# re-stamped tail, each leaving a partly evicted run keyed at its new tail.
@example(
    paths=[[0, 0, 0, 0], [0, 0], [1, 1]],
    ops=[(0.0, ("insert", 0, None)), (1.0, ("insert", 2, None)), (0.0, ("pin", 1, None)),
         (1.0, ("match", 0, None)), (0.0, ("evict", 1)), (0.0, ("evict", 2)),
         (0.0, ("evict", 1)), (0.0, ("unpin", 0)), (0.0, ("evict", 3))],
    capacity=6,
)
def test_radix_cache_matches_reference(paths, ops, capacity):
    chains = [chain(path) for path in paths]
    cache = RadixPrefixCache(BlockAllocator(capacity, BLOCK))
    victims: list[int] = []
    cache.on_evict = victims.extend
    reference = ReferenceRadixCache(capacity)
    pins: list[tuple[list, list[int]]] = []
    now = 0.0

    for tick, op in ops:
        now += tick
        kind = op[0]
        if kind in ("insert", "match", "pin"):
            hashes = chains[op[1] % len(chains)][:op[2]]
        elif kind == "match_length":
            hashes = chains[op[1] % len(chains)]
        if kind == "insert":
            assert cache.insert(hashes, now=now) == reference.insert(hashes, now)
        elif kind == "match":
            found = cache.match(hashes, now=now)
            expected = reference.match(hashes, now)
            assert (found.num_blocks, found.num_tokens) == (expected, expected * BLOCK)
            assert (found.frontier and found.frontier.hashes[-1]) == last(hashes[:expected])
        elif kind == "match_length":
            assert cache.match_length(hashes, op[2]) == len(reference.cached_prefix(hashes))
        elif kind == "pin":
            expected = reference.pin_prefix(hashes)
            frontier = cache.pin_prefix(hashes, len(expected))
            assert (frontier and frontier.hashes[-1]) == last(expected)
            pins.append((frontier, expected))
        elif kind == "unpin" and pins:
            frontier, expected = pins.pop(op[1] % len(pins))
            cache.unpin(frontier)
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
        assert victims == reference.victims
        assert cache.num_evictable_blocks == sum(
            1 for count in reference.pins.values() if not count
        )
        leaf_keys = {
            content_hash: (node.last_access, node.seq)
            for content_hash, node in cache.snapshot().nodes.items()
            if not node.num_children
        }
        assert leaf_keys == {
            block: (reference.last_access[block], reference.seq[block])
            for block, children in reference.children.items() if not children
        }
