"""KV-cache blocks and content hashing.

The KV cache is managed at the granularity of fixed-size blocks of tokens
(pages).  A block is identified for *allocation* purposes by a :class:`BlockId`
and for *prefix matching* purposes by a content hash that chains the hash of
the previous block with the tokens stored in this block — the same scheme
vLLM's automatic prefix caching uses, which guarantees that two requests map to
the same cached block only if they agree on the entire prefix up to and
including that block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.perf import memo

BlockId = int

#: Hash value used for the empty prefix (the root of every hash chain).
ROOT_HASH = 0


def hash_chain(parent_hash: int, content: tuple) -> int:
    """Chain ``content`` onto ``parent_hash`` to produce a block content hash."""
    return hash((parent_hash, content))


class HashChainCache:
    """Interned hash chains: ``(parent_hash, content) -> chained hash``.

    Two requests that share a prefix walk the identical ``(parent, content)``
    pairs block by block; without interning, every request re-hashes the
    shared blocks from scratch.  The cache stores exactly
    ``hash((parent_hash, content))`` under the key ``(parent_hash, content)``,
    so an interned chain is bit-identical to :func:`hash_chain` — a property
    the test suite pins — and, because block content is tuples of ints (whose
    hashes do not depend on ``PYTHONHASHSEED``), the values are stable across
    worker processes of the parallel runner.

    A filled cache is cleared wholesale rather than evicted entry-by-entry:
    correctness never depends on residency, only speed does.
    """

    __slots__ = ("_entries", "maxsize", "hits", "misses")

    def __init__(self, maxsize: int = 1 << 20) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self._entries: dict[tuple[int, tuple], int] = {}
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def chain(self, parent_hash: int, content: tuple) -> int:
        """Interned equivalent of :func:`hash_chain`."""
        key = (parent_hash, content)
        value = self._entries.get(key)
        if value is None:
            value = hash(key)
            if len(self._entries) >= self.maxsize:
                self._entries.clear()
            self._entries[key] = value
            self.misses += 1
        else:
            self.hits += 1
        return value

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: The process-wide interning cache used by
#: :meth:`repro.workloads.trace.TokenSequence.block_hashes`, wired into the
#: :mod:`repro.perf.memo` switchboard so disabling memoization clears it.
GLOBAL_HASH_CHAIN_CACHE = HashChainCache()
memo.register_cache(GLOBAL_HASH_CHAIN_CACHE.clear)


def hash_token_blocks(tokens: Sequence[int], block_size: int) -> list[int]:
    """Split ``tokens`` into full blocks and return the chained content hashes.

    Only *full* blocks are hashed (a trailing partial block cannot be shared
    with another request, so it never enters the prefix cache).
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    hashes: list[int] = []
    parent = ROOT_HASH
    for start in range(0, len(tokens) - block_size + 1, block_size):
        content = tuple(tokens[start:start + block_size])
        parent = hash_chain(parent, content)
        hashes.append(parent)
    return hashes


@dataclass(slots=True)
class Block:
    """One physical KV-cache block (page).

    Attributes:
        block_id: Physical block identifier assigned by the allocator.
        content_hash: Chained content hash if the block holds cached prefix
            data, ``None`` for scratch blocks reserved during execution.
        num_tokens: Number of tokens stored in the block.
        ref_count: Number of in-flight requests currently pinning the block.
        last_access: Logical timestamp of the most recent use (for LRU).
    """

    block_id: BlockId
    content_hash: int | None = None
    num_tokens: int = 0
    ref_count: int = 0
    last_access: float = 0.0

    @property
    def is_pinned(self) -> bool:
        """True while at least one running request still needs this block."""
        return self.ref_count > 0

    def touch(self, now: float) -> None:
        """Record an access for LRU bookkeeping."""
        if now >= self.last_access:
            self.last_access = now

    def pin(self) -> None:
        self.ref_count += 1

    def unpin(self) -> None:
        if self.ref_count <= 0:
            raise ValueError(f"block {self.block_id} unpinned more times than pinned")
        self.ref_count -= 1


def count_full_blocks(num_tokens: int, block_size: int) -> int:
    """Number of completely filled blocks needed to store ``num_tokens``."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return num_tokens // block_size


def count_blocks(num_tokens: int, block_size: int) -> int:
    """Number of blocks (including a trailing partial one) for ``num_tokens``."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return -(-num_tokens // block_size)


def iter_block_slices(num_tokens: int, block_size: int) -> Iterable[tuple[int, int]]:
    """Yield ``(start, end)`` token ranges for each block of a request."""
    for start in range(0, num_tokens, block_size):
        yield start, min(start + block_size, num_tokens)
