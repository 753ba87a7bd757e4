"""Radix-tree prefix cache over chained block hashes.

Cached KV blocks are organised as a tree: a node's children are the blocks that
can follow it, keyed by their chained content hash.  Because the content hash
of block *i* already incorporates the hashes of blocks 0..i-1 (see
``repro.kvcache.block.hash_chain``), looking up a request's block-hash list is
a walk from the root that stops at the first miss — exactly the prefix-match
semantics of vLLM's automatic prefix caching.

Eviction is LRU over *leaf* nodes that are not pinned by a running request
(evicting an interior node would orphan its descendants' hash chains).

Victim selection uses a lazy min-heap of ``(last_access, creation_seq, node)``
candidates rather than scanning every node per eviction: an entry is pushed
when a node is created and when it becomes a leaf again after a child is
evicted, and entries are validated when popped — dead and interior nodes are
dropped, a node whose timestamp moved since its entry was pushed is re-keyed
in place (lazy decrease-key, so cache touches stay O(1)), and pinned
candidates are pushed back once the eviction pass ends.  The victim is always
the unpinned leaf with the smallest ``(last_access, creation_seq)``: ties on
the timestamp go to the older node.  ``tests/test_prefix_cache_oracle.py``
checks that order against a full-scan reference cache.

The tree also keeps a change record for one watcher (the SRJF scheduler's
frontier index, see :mod:`repro.core.scheduler`): the watched content hashes
inserted or evicted since the watcher last called :meth:`take_changes`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import islice
from typing import Container, Sequence

from repro.errors import AllocationError
from repro.kvcache.allocator import BlockAllocator
from repro.kvcache.block import Block


@dataclass(slots=True)
class _TreeNode:
    """One cached block inside the radix tree."""

    content_hash: int
    block: Block
    parent: "_TreeNode | None"
    children: dict[int, "_TreeNode"] = field(default_factory=dict)
    seq: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class PrefixMatch:
    """Result of looking up a request's block hashes in the prefix cache.

    Attributes:
        num_blocks: Number of leading blocks found in the cache.
        num_tokens: The same count expressed in tokens.
        blocks: The matched blocks, in prefix order.
    """

    num_blocks: int
    num_tokens: int
    blocks: tuple[Block, ...]


class RadixPrefixCache:
    """LRU radix-tree prefix cache backed by a :class:`BlockAllocator`.

    The cache owns the blocks it stores: inserting allocates from the shared
    allocator (possibly after evicting), and evicting frees back to it.

    Args:
        allocator: Shared physical block pool.
    """

    def __init__(self, allocator: BlockAllocator) -> None:
        self._allocator = allocator
        self._nodes: dict[int, _TreeNode] = {}
        self._roots: dict[int, _TreeNode] = {}
        self._lru_heap: list[tuple[float, int, _TreeNode]] = []
        self._node_seq = 0
        self._version = 0
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0
        self._watched: Container[int] = ()
        self._changed: set[int] = set()
        #: Optional hook fired as ``on_evict(content_hash, num_tokens)`` for
        #: every evicted block.  Purely observational — victim selection and
        #: eviction order are identical with or without it; the tiered prefix
        #: store uses it to demote GPU evictions into the host tier.
        self.on_evict = None

    def _note_candidate(self, node: _TreeNode) -> None:
        """Push a fresh LRU-heap entry for ``node`` at its current timestamp."""
        heapq.heappush(self._lru_heap, (node.block.last_access, node.seq, node))

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
        """Number of tokens currently held by the cache."""
        return sum(node.block.num_tokens for node in self._nodes.values())

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

    def match(self, block_hashes: Sequence[int], *, now: float = 0.0,
              touch: bool = True) -> PrefixMatch:
        """Find the longest cached prefix of ``block_hashes``.

        Args:
            block_hashes: Chained content hashes of the request's full blocks.
            now: Logical time used to refresh LRU timestamps.
            touch: If False, the lookup does not update LRU state (used by the
                scheduler's JCT calibration, which must not perturb eviction
                order merely by inspecting the queue).
        """
        matched: list[Block] = []
        tokens = 0
        for content_hash in block_hashes:
            node = self._nodes.get(content_hash)
            if node is None:
                self._misses += 1
                break
            if touch:
                node.block.touch(now)
            matched.append(node.block)
            tokens += node.block.num_tokens
            self._hits += 1
        return PrefixMatch(num_blocks=len(matched), num_tokens=tokens, blocks=tuple(matched))

    def match_length(self, block_hashes: Sequence[int], hint: int = 0) -> int:
        """Return only the number of cached leading blocks (no LRU update).

        ``hint`` is an earlier match length of the same chain.  Only leaves
        are evicted and hashes are chained, so the cached part of a chain is
        a prefix of it: the walk backtracks from the hint to the deepest
        cached block and extends forward from there.  The result does not
        depend on the hint; the cost is the number of blocks that changed.
        """
        nodes = self._nodes
        count = min(hint, len(block_hashes))
        while count > 0 and block_hashes[count - 1] not in nodes:
            count -= 1
        for content_hash in islice(block_hashes, count, None):
            if content_hash not in nodes:
                break
            count += 1
        return count

    def resident_hashes(self) -> list[int]:
        """Every cached content hash, parents before children.

        Because only leaves are ever evicted, the resident set is
        prefix-closed per chain and the node dict's insertion order always
        lists a block's ancestors before the block itself — so feeding this
        list to a flat prefix store (e.g. the cluster tier on scale-down
        drain) preserves matchability of every cached prefix.
        """
        return list(self._nodes)

    # ------------------------------------------------------------- insertion

    def insert(self, block_hashes: Sequence[int], *, block_size: int, now: float = 0.0,
               max_new_blocks: int | None = None, allow_eviction: bool = True) -> int:
        """Insert the blocks of a finished request into the cache.

        Blocks already present are refreshed; missing blocks are allocated from
        the shared pool, evicting LRU leaves when ``allow_eviction`` is True.
        Insertion stops early (suffix discarding) when the pool cannot supply a
        block, or when ``max_new_blocks`` new blocks have been added.

        Returns:
            The number of blocks of the request now resident in the cache
            (matched + newly inserted), i.e. the cached prefix length in blocks.
        """
        parent: _TreeNode | None = None
        resident = 0
        new_blocks = 0
        # Pin the insert path so that evictions triggered by this very insert
        # cannot remove the request's own ancestors (which would break the
        # chained-hash prefix property).
        path: list[Block] = []
        try:
            for content_hash in block_hashes:
                node = self._nodes.get(content_hash)
                if node is not None:
                    node.block.touch(now)
                    node.block.pin()
                    path.append(node.block)
                    parent = node
                    resident += 1
                    continue
                if max_new_blocks is not None and new_blocks >= max_new_blocks:
                    break
                block = self._allocate_block(
                    content_hash, block_size, now, allow_eviction=allow_eviction
                )
                if block is None:
                    break
                node = _TreeNode(
                    content_hash=content_hash, block=block, parent=parent,
                    seq=self._node_seq,
                )
                self._node_seq += 1
                if parent is None:
                    self._roots[content_hash] = node
                else:
                    parent.children[content_hash] = node
                self._nodes[content_hash] = node
                if content_hash in self._watched:
                    self._changed.add(content_hash)
                self._note_candidate(node)
                node.block.pin()
                path.append(node.block)
                parent = node
                resident += 1
                new_blocks += 1
                self._insertions += 1
                self._version += 1
        finally:
            for block in path:
                block.unpin()
        return resident

    def _allocate_block(self, content_hash: int, block_size: int, now: float, *,
                        allow_eviction: bool) -> Block | None:
        """Allocate one block, evicting LRU leaves if necessary and allowed."""
        while True:
            try:
                return self._allocator.allocate(
                    content_hash=content_hash, num_tokens=block_size, now=now
                )
            except AllocationError:
                if not allow_eviction or not self.evict_blocks(1):
                    return None

    # -------------------------------------------------------------- eviction

    @property
    def num_evictable_blocks(self) -> int:
        """Number of blocks that could be reclaimed right now.

        This counts the whole unpinned subtree mass, not just current leaves,
        because evicting a leaf exposes its parent as the next victim.
        """
        return sum(1 for node in self._nodes.values() if not node.block.is_pinned)

    def evict_blocks(self, count: int) -> int:
        """Evict up to ``count`` blocks in LRU order; return how many were evicted.

        Every evictable node has at least one heap entry — pushed at its
        creation and whenever it becomes a leaf again — whose key never
        *overestimates* the node's recency (``touch`` only moves timestamps
        forward).  Popping therefore surfaces candidates in optimistic order:
        a dead or interior node is dropped, a node whose timestamp moved since
        the entry was pushed is re-keyed at its current ``last_access`` (lazy
        decrease-key, paid only when evictions actually happen rather than on
        every cache touch), and a pinned candidate is parked and re-pushed
        after the pass.  The first entry that survives validation is the true
        ``(last_access, seq)`` minimum over the unpinned leaves.
        """
        heap = self._lru_heap
        pinned: list[tuple[float, int, _TreeNode]] = []
        evicted = 0
        while evicted < count and heap:
            entry = heapq.heappop(heap)
            last_access, _, node = entry
            if self._nodes.get(node.content_hash) is not node or not node.is_leaf:
                continue
            if node.block.last_access != last_access:
                heapq.heappush(heap, (node.block.last_access, node.seq, node))
                continue
            if node.block.is_pinned:
                pinned.append(entry)
                continue
            self._remove_node(node)
            evicted += 1
        for entry in pinned:
            heapq.heappush(heap, entry)
        return evicted

    def _remove_node(self, node: _TreeNode) -> None:
        if node.parent is None:
            self._roots.pop(node.content_hash, None)
        else:
            node.parent.children.pop(node.content_hash, None)
            if node.parent.is_leaf:
                # The parent just became evictable; give it a live heap entry.
                self._note_candidate(node.parent)
        del self._nodes[node.content_hash]
        if node.content_hash in self._watched:
            self._changed.add(node.content_hash)
        self._allocator.free(node.block)
        self._evictions += 1
        self._version += 1
        if self.on_evict is not None:
            self.on_evict(node.content_hash, node.block.num_tokens)

    # --------------------------------------------------------------- pinning

    def pin_prefix(self, block_hashes: Sequence[int]) -> list[Block]:
        """Pin the cached prefix of a request while it executes.

        Pinned blocks cannot be evicted, which is how the cache guarantees that
        a scheduled request's advertised prefix hit is still there when the
        request actually runs.
        """
        pinned: list[Block] = []
        for content_hash in block_hashes:
            node = self._nodes.get(content_hash)
            if node is None:
                break
            node.block.pin()
            pinned.append(node.block)
        return pinned

    def unpin(self, blocks: Sequence[Block]) -> None:
        """Release blocks pinned by :meth:`pin_prefix`."""
        for block in blocks:
            block.unpin()

    # ----------------------------------------------------------------- misc

    def clear(self) -> None:
        """Drop every cached block (used between experiments)."""
        for node in list(self._nodes.values()):
            if node.block.is_pinned:
                raise AllocationError("cannot clear the prefix cache while blocks are pinned")
        for node in list(self._nodes.values()):
            self._allocator.free(node.block)
        self._changed.update(self._watched)
        self._nodes.clear()
        self._roots.clear()
        self._lru_heap.clear()
        self._version += 1
