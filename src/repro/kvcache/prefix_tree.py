"""Radix-tree prefix cache over chained block hashes.

Cached KV blocks are organised as a tree: a node's children are the blocks that
can follow it.  The tree keeps one node per *run*, as SGLang's RadixAttention
does: a :class:`~repro.kvcache.block.Block` holds the consecutive blocks one
insert created, with their content hashes and the integer block ids the
allocator handed out, so a first touch of a long prefix costs one node, not
one per block.  Because the content hash of block *i* already incorporates
the hashes of blocks 0..i-1 (see ``repro.kvcache.block.hash_chain``), one flat
dict from content hash to the run holding it finds any block, and a block's
offset in its run is its chain index minus the run's ``depth``.  The match of
a request's block-hash list is its longest cached prefix — exactly the
prefix-match semantics of vLLM's automatic prefix caching.  No lookup goes
through a parent, so a run keeps only its parent and a count of its
children.

The cached part of a chain is a prefix of it: an insert adds a chain's
missing blocks below its deepest cached one, and only leaves are evicted, so
a cached block's parent is cached too.  That holds under the assumption the
single hash dict already makes, that two different chains never share a
content hash.  Whether ``H[i]`` is cached is therefore true below the match
length and false from it on, and :meth:`RadixPrefixCache.match`,
:meth:`~RadixPrefixCache.match_length` and :meth:`~RadixPrefixCache.insert`
find that length by bisection, in O(log n) dict probes for an n-block chain.
A hinted lookup probes the hint first: when ``H[hint-1]`` is cached and
``H[hint]`` is not, the hint is the answer after two probes, so a scheduler
recalibration whose match did not move costs two probes; otherwise the
failed probe says which side of the hint to bisect.

Eviction is LRU over *leaf* blocks that are not pinned by a running request
(evicting an interior block would orphan its descendants' hash chains).  The
tree alone guards pins: it never evicts or clears a pinned block.

A request pins and LRU-stamps only its *frontier*, the deepest cached block of
its chain, as RadixAttention keeps one reference count and one timestamp per
matched run rather than per block.  A pinned frontier keeps every ancestor
interior, so the whole cached prefix is safe from eviction.  An ancestor's
own timestamp is stale until it matters: when a victim is evicted, its
``last_access`` folds into its parent, so a block that becomes a leaf again
carries the latest access of any chain that ran through it.  A touched leaf
is always a frontier, so every leaf's timestamp, and with it the victim
order, is exactly what stamping every block of every chain would give.

Three invariants keep the runs exact against that per-block tree:

* **Only a tail is stamped or pinned.**  A frontier that ends mid-run (a
  match, an insert's deepest resident block, a pin) first splits the run:
  the blocks down to the frontier become a new run, the parent of the rest.
  The original run object keeps the tail, so the pins, leases, heap entries
  and child runs that name it stay valid, and only the upper part's hashes
  are re-pointed in the dict, which keeps its order.
* **Blocks above a run's tail keep the creation stamp.**  They were never a
  frontier, and a block's only child is the next block of its run, so no
  fold has reached them: the run's ``created`` is their ``last_access``.
* **Tail-first eviction of a run is the per-block order.**  When a run's tail
  ``(last_access, seq)`` is the smallest unpinned leaf key, evicting it
  makes the next block a leaf keyed ``(last_access, seq - 1)`` (the fold of
  the tail's stamp onto the creation stamp is the tail's stamp), which is
  below the minimum just taken.  So one eviction pass takes blocks from the
  run's tail until its count is met, as block-at-a-time eviction would.

Victim selection uses a lazy min-heap of ``(last_access, seq, run)``
candidates rather than scanning every node per eviction.  Only leaf runs are
candidates, so an entry is pushed for the run an insert creates, for a run
left partly evicted by a pass, and for a run that becomes a leaf again after
its last child run is evicted.  Entries are validated when popped: an entry
whose ``seq`` is no longer its run's tail names an evicted block and is
dropped, as is one for an interior run; a run whose timestamp moved since
its entry was pushed is re-keyed in place (lazy decrease-key, so cache
touches stay O(1)), and pinned candidates are pushed back once the eviction
pass ends.  The victim is always the unpinned leaf block with the smallest
``(last_access, seq)``: ties on the timestamp go to the older block.  An
insert frees the room it is short of in one eviction pass before it
allocates, which picks the same victims as evicting one block per failed
allocation would: the new blocks are never candidates.
``tests/test_prefix_cache_oracle.py`` checks that order against a full-scan
reference cache that stamps and pins every block and evicts one block at a
time.

Everything observable stays per block: one allocator call per allocated or
freed block, the stats counters, the version bumps, the change record and
the victims handed to :attr:`RadixPrefixCache.on_evict`, and
:meth:`RadixPrefixCache.snapshot`, which expands the runs into one
:class:`NodeState` per block.

The tree also keeps a change record for one watcher (the SRJF scheduler's
frontier index, see :mod:`repro.core.scheduler`): the watched content hashes
inserted or evicted since the watcher last called :meth:`take_changes`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Container, NamedTuple, Sequence

from repro.errors import AllocationError
from repro.kvcache.allocator import BlockAllocator
from repro.kvcache.block import Block, BlockId


@dataclass(frozen=True)
class PrefixMatch:
    """Result of looking up a request's block hashes in the prefix cache.

    Attributes:
        num_blocks: Number of leading blocks found in the cache.
        num_tokens: The same count expressed in tokens.
        frontier: The run whose tail is the deepest matched block, or None
            when nothing matched.
    """

    num_blocks: int
    num_tokens: int
    frontier: Block | None


class NodeState(NamedTuple):
    """One resident block, as :meth:`RadixPrefixCache.snapshot` reports it."""

    parent: int | None
    num_children: int
    block_id: BlockId
    ref_count: int
    last_access: float
    seq: int


@dataclass(frozen=True)
class TreeSnapshot:
    """The tree's structure, read by the KV structural invariant check.

    Attributes:
        nodes: Every resident block by content hash, in residency order.
        heap_keys: For each resident block with a live LRU-heap entry, the
            smallest ``(last_access, seq)`` key among its entries.
        allocator: The block pool the tree allocates from.
    """

    nodes: dict[int, NodeState]
    heap_keys: dict[int, tuple[float, int]]
    allocator: BlockAllocator


class RadixPrefixCache:
    """LRU radix-tree prefix cache backed by a :class:`BlockAllocator`.

    The cache owns the blocks it stores: inserting allocates full blocks of
    the allocator's block size from the shared pool (possibly after
    evicting), and evicting frees back to it.

    Args:
        allocator: Shared physical block pool.
    """

    def __init__(self, allocator: BlockAllocator) -> None:
        self._allocator = allocator
        self._block_size = allocator.block_size
        #: Content hash -> the run holding the block.
        self._nodes: dict[int, Block] = {}
        self._lru_heap: list[tuple[float, int, Block]] = []
        self._node_seq = 0
        self._version = 0
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0
        self._watched: Container[int] = ()
        self._changed: set[int] = set()
        #: Optional hook fired once per eviction pass, after it ends, as
        #: ``on_evict(victims)`` with the pass's evicted content hashes in
        #: eviction order.  Purely observational: victim selection and
        #: eviction order are identical with or without it.  The tiered
        #: prefix store uses it to demote GPU evictions into the host tier.
        self.on_evict = None

    def _note_candidate(self, run: Block) -> None:
        """Push a fresh LRU-heap entry for ``run``'s tail at its current timestamp."""
        heapq.heappush(self._lru_heap, (run.last_access, run.seq, run))

    def _runs(self) -> dict[Block, None]:
        """Every resident run, in residency order.

        A run's hashes are inserted together and leave from the tail, and a
        split re-points them in place, so each run is one contiguous slice of
        the hash dict's order."""
        return dict.fromkeys(self._nodes.values())

    # ---------------------------------------------------------------- state

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every insertion or eviction."""
        return self._version

    @property
    def num_cached_blocks(self) -> int:
        """Number of blocks currently held by the cache."""
        return len(self._nodes)

    @property
    def num_cached_tokens(self) -> int:
        """Number of tokens currently held by the cache (every block is full)."""
        return len(self._nodes) * self._block_size

    @property
    def stats(self) -> dict:
        """Cumulative hit/miss/insert/evict counters."""
        return {
            "block_hits": self._hits,
            "block_misses": self._misses,
            "insertions": self._insertions,
            "evictions": self._evictions,
        }

    def __contains__(self, content_hash: int) -> bool:
        return content_hash in self._nodes

    def take_changes(self, watched: Container[int]) -> set[int] | None:
        """Watched content hashes inserted or evicted since the previous call.

        ``watched`` is a live container of hashes that its owner keeps
        updating.  A change is recorded only if its hash is watched when it
        happens, so the record never outgrows the watched set and stays empty
        while nothing is watched.  One container is watched at a time: when
        ``watched`` is not the one already watched, the tree starts watching
        it with an empty record and returns None, since it has no record for
        the caller.
        """
        if watched is not self._watched:
            self._watched = watched
            self._changed = set()
            return None
        changed = self._changed
        if changed:
            self._changed = set()
        return changed

    # ---------------------------------------------------------------- lookup

    def match(self, block_hashes: Sequence[int], *, now: float = 0.0) -> PrefixMatch:
        """Find the longest cached prefix of ``block_hashes`` and stamp it.

        A lookup that must not perturb eviction order (the scheduler's JCT
        calibration) uses :meth:`match_length` instead.

        Args:
            block_hashes: Chained content hashes of the request's full blocks.
            now: Logical time stamped on the frontier, the deepest matched
                block (its ancestors receive it when it is evicted).
        """
        count = self._cached_prefix(block_hashes, 0)
        if count < len(block_hashes):
            self._misses += 1
        if not count:
            return PrefixMatch(0, 0, None)
        self._hits += count
        frontier = self._frontier(block_hashes, count)
        frontier.touch(now)
        return PrefixMatch(count, count * self._block_size, frontier)

    def match_length(self, block_hashes: Sequence[int], hint: int = 0) -> int:
        """Return only the number of cached leading blocks (no LRU update).

        ``hint`` is an earlier match length of the same chain; the result
        does not depend on it, but an unchanged match costs two probes.
        """
        return self._cached_prefix(block_hashes, hint)

    def _cached_prefix(self, block_hashes: Sequence[int], hint: int) -> int:
        """The number of cached leading blocks of ``block_hashes``, by
        bisection after probing ``hint`` (see the module docstring)."""
        nodes = self._nodes
        size = len(block_hashes)
        if hint > size:
            hint = size
        if hint and block_hashes[hint - 1] not in nodes:
            low, high = 0, hint - 1
        elif hint < size and block_hashes[hint] in nodes:
            low, high = hint + 1, size
        else:
            return hint
        # The answer lies in [low, high].
        while low < high:
            middle = (low + high) // 2
            if block_hashes[middle] in nodes:
                low = middle + 1
            else:
                high = middle
        return low

    def _frontier(self, block_hashes: Sequence[int], count: int) -> Block:
        """The run whose tail is block ``count - 1`` of the cached chain
        ``block_hashes``, split off first when that block is mid-run."""
        run = self._nodes[block_hashes[count - 1]]
        keep = count - run.depth
        if keep < len(run.hashes):
            return self._split(run, keep)
        return run

    def _split(self, run: Block, keep: int) -> Block:
        """Split ``run``'s first ``keep`` blocks off as a new run, the parent
        of the rest, and return it.

        ``run`` keeps its tail, so everything that names it stays valid.  The
        new run's blocks were above the tail: they keep the creation stamp
        and need no heap entry while ``run`` is their child.
        """
        hashes, block_ids = run.hashes, run.block_ids
        upper = Block(hashes[:keep], block_ids[:keep], run.depth, run.parent,
                      run.seq - len(hashes) + keep, run.created)
        upper.num_children = 1
        del hashes[:keep], block_ids[:keep]
        run.parent = upper
        run.depth += keep
        nodes = self._nodes
        for content_hash in upper.hashes:
            nodes[content_hash] = upper
        return upper

    def resident_hashes(self) -> list[int]:
        """Every cached content hash, parents before children.

        Because only leaves are ever evicted, the resident set is
        prefix-closed per chain and the hash dict's insertion order always
        lists a block's ancestors before the block itself — so feeding this
        list to a flat prefix store (e.g. the cluster tier on scale-down
        drain) preserves matchability of every cached prefix.
        """
        return list(self._nodes)

    # ------------------------------------------------------------- insertion

    def insert(self, block_hashes: Sequence[int], *, now: float = 0.0) -> int:
        """Insert the blocks of a finished request into the cache.

        The deepest block already present is stamped; missing blocks are
        allocated from the shared pool, after one eviction pass frees what the
        pool is short of, and become one new run.  Insertion stops early
        (suffix discarding) when the pool cannot supply a block.

        Returns:
            The number of blocks of the request now resident in the cache
            (matched + newly inserted), i.e. the cached prefix length in blocks.
        """
        resident = self._cached_prefix(block_hashes, 0)
        tail = self._frontier(block_hashes, resident) if resident else None
        if tail is not None:
            tail.touch(now)
        count = len(block_hashes) - resident
        if count <= 0:
            return resident
        # The tail is pinned so that this insert cannot evict the request's
        # own ancestors (which would break the chained-hash prefix property);
        # the new blocks are not in the tree yet.
        self.make_room(count, tail)
        count = min(count, self._allocator.num_free_blocks)
        if not count:
            return resident
        allocate = self._allocator.allocate
        hashes = list(block_hashes[resident:resident + count])
        self._node_seq += count
        run = Block(hashes, [allocate() for _ in hashes], resident, tail,
                    self._node_seq - 1, now)
        if tail is not None:
            tail.num_children += 1
        nodes, watched, changed = self._nodes, self._watched, self._changed
        for content_hash in hashes:
            nodes[content_hash] = run
            if content_hash in watched:
                changed.add(content_hash)
        # The new run is a leaf, and so a candidate.
        self._note_candidate(run)
        self._insertions += count
        self._version += count
        return resident + count

    def make_room(self, count: int, protect: Block | None = None) -> None:
        """Evict LRU leaves in one pass until ``count`` blocks are free.

        ``protect``, if given, is pinned during the pass, so it and its
        ancestors stay resident.  Fewer blocks are freed when too few are
        evictable.
        """
        shortfall = count - self._allocator.num_free_blocks
        if shortfall <= 0:
            return
        if protect is not None:
            protect.pin()
        try:
            self.evict_blocks(shortfall)
        finally:
            if protect is not None:
                protect.unpin()

    # -------------------------------------------------------------- eviction

    @property
    def num_evictable_blocks(self) -> int:
        """Number of blocks that could be reclaimed right now.

        This counts the whole unpinned subtree mass, not just current leaves,
        because evicting a leaf exposes its parent as the next victim: every
        block on no pinned frontier's root path.
        """
        protected: set[Block] = set()
        for run in self._runs():
            if run.is_pinned:
                while run is not None and run not in protected:
                    protected.add(run)
                    run = run.parent
        return len(self._nodes) - sum(len(run.hashes) for run in protected)

    def evict_blocks(self, count: int) -> int:
        """Evict up to ``count`` blocks in LRU order; return how many were evicted.

        Only a leaf's timestamp decides its turn.  Requests stamp only their
        frontier, and a victim's ``last_access`` folds into its parent as it
        leaves, so a block that becomes a leaf again has the latest access of
        every chain that ran through it, as if every block had been stamped.

        Every evictable run has at least one heap entry — pushed when an
        insert creates it, when a pass leaves it partly evicted and whenever
        it becomes a leaf again — whose key never *overestimates* its tail's
        recency (``touch`` only moves timestamps forward).  Popping therefore
        surfaces candidates in optimistic order: an entry for an evicted
        block or an interior run is dropped, a run whose timestamp moved
        since the entry was pushed is re-keyed at its current
        ``last_access`` (lazy decrease-key, paid only when evictions actually
        happen rather than on every cache touch), and a pinned candidate is
        parked and re-pushed after the pass.  The first entry that survives
        validation is the true ``(last_access, seq)`` minimum over the
        unpinned leaves, and the blocks above it follow it in key order (see
        the module docstring), so the pass takes blocks from that run's tail
        until its count is met.

        The pass's victims go to :attr:`on_evict` in one call once it ends.
        """
        heap = self._lru_heap
        nodes = self._nodes
        watched, changed = self._watched, self._changed
        free = self._allocator.free
        pinned: list[tuple[float, int, Block]] = []
        victims: list[int] = []
        while len(victims) < count and heap:
            entry = heapq.heappop(heap)
            last_access, seq, run = entry
            if seq != run.seq or not run.hashes or run.num_children:
                continue
            if run.last_access != last_access:
                heapq.heappush(heap, (run.last_access, seq, run))
                continue
            if run.is_pinned:
                pinned.append(entry)
                continue
            hashes, block_ids = run.hashes, run.block_ids
            taken = min(count - len(victims), len(hashes))
            for _ in range(taken):
                content_hash = hashes.pop()
                del nodes[content_hash]
                if content_hash in watched:
                    changed.add(content_hash)
                free(block_ids.pop())
                victims.append(content_hash)
            run.seq -= taken
            self._evictions += taken
            self._version += taken
            if hashes:
                # Partly evicted: its new tail is a leaf keyed one seq lower.
                self._note_candidate(run)
                continue
            parent = run.parent
            if parent is not None:
                parent.num_children -= 1
                # The parent inherits the victim's recency: every access that
                # stamped the victim ran through the parent too.
                parent.touch(run.last_access)
                if not parent.num_children:
                    # The parent just became evictable; give it a live heap entry.
                    self._note_candidate(parent)
        for entry in pinned:
            heapq.heappush(heap, entry)
        if victims and self.on_evict is not None:
            self.on_evict(victims)
        return len(victims)

    # --------------------------------------------------------------- pinning

    def pin_prefix(self, block_hashes: Sequence[int], num_blocks: int) -> Block | None:
        """Pin the cached prefix ``block_hashes[:num_blocks]`` while a request executes.

        Only the frontier ``block_hashes[num_blocks - 1]`` is pinned, as the
        tail of its run (split off first when it is mid-run): only unpinned
        leaves are evicted, so its ancestors stay resident with it.  This is
        how the cache guarantees that a scheduled request's advertised prefix
        hit is still there when the request actually runs.

        Returns:
            The run whose tail is the pinned frontier, for :meth:`unpin`, or
            None when ``num_blocks`` is 0.
        """
        if not num_blocks:
            return None
        frontier = self._frontier(block_hashes, num_blocks)
        frontier.pin()
        return frontier

    def unpin(self, frontier: Block | None) -> None:
        """Release a frontier pinned by :meth:`pin_prefix`."""
        if frontier is not None:
            frontier.unpin()

    def snapshot(self) -> TreeSnapshot:
        """The tree's structure block by block, for the KV structural
        invariant check (:func:`repro.simulation.invariants.check_kv_structure`).

        Each run expands into one :class:`NodeState` per block: a block above
        the tail has its run's next block as its one child, no pin and the
        creation stamp.
        """
        heap_keys: dict[int, tuple[float, int]] = {}
        for last_access, seq, run in self._lru_heap:
            if seq == run.seq and run.hashes:
                content_hash = run.hashes[-1]
                key = (last_access, seq)
                heap_keys[content_hash] = min(heap_keys.get(content_hash, key), key)
        nodes: dict[int, NodeState] = {}
        for run in self._runs():
            parent = run.parent.hashes[-1] if run.parent is not None else None
            last = len(run.hashes) - 1
            first_seq = run.seq - last
            for index, (content_hash, block_id) in enumerate(zip(run.hashes, run.block_ids)):
                if index < last:
                    nodes[content_hash] = NodeState(parent, 1, block_id, 0, run.created,
                                                    first_seq + index)
                else:
                    nodes[content_hash] = NodeState(parent, run.num_children, block_id,
                                                    run.ref_count, run.last_access, run.seq)
                parent = content_hash
        return TreeSnapshot(nodes=nodes, heap_keys=heap_keys, allocator=self._allocator)

    # ----------------------------------------------------------------- misc

    def clear(self) -> None:
        """Drop every cached block (used between experiments)."""
        runs = self._runs()
        if any(run.is_pinned for run in runs):
            raise AllocationError("cannot clear the prefix cache while blocks are pinned")
        free = self._allocator.free
        for run in runs:
            for block_id in run.block_ids:
                free(block_id)
        self._changed.update(self._watched)
        self._nodes.clear()
        self._lru_heap.clear()
        self._version += 1
