"""KV-cache blocks and content hashing.

The KV cache is managed at the granularity of fixed-size blocks of tokens
(pages).  A block is identified for *allocation* purposes by an integer
:data:`BlockId` and for *prefix matching* purposes by a content hash that
chains the hash of the previous block with the tokens stored in this block —
the same scheme vLLM's automatic prefix caching uses, which guarantees that
two requests map to the same cached block only if they agree on the entire
prefix up to and including that block.  The radix prefix tree keeps cached
blocks in runs: one :class:`Block` holds the consecutive blocks one insert
created, and is their node in the tree.
"""

from __future__ import annotations

from typing import Sequence

BlockId = int

#: Hash value used for the empty prefix (the root of every hash chain).
ROOT_HASH = 0


def hash_chain(parent_hash: int, content: tuple) -> int:
    """Chain ``content`` onto ``parent_hash`` to produce a block content hash."""
    return hash((parent_hash, content))


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


class Block:
    """A run of cached KV-cache blocks: one node of the radix prefix tree.

    A run holds the consecutive blocks of one chain that one insert created,
    as SGLang's RadixAttention keeps one node per run of tokens rather than
    per block.  Only the run's last block, its *tail*, is ever stamped or
    pinned, so the run keeps one reference count and one ``last_access``, for
    the tail; the blocks above the tail keep the run's creation stamp.  Block
    ``i`` of the run is block ``depth + i`` of every chain through it, and its
    creation sequence number is ``seq - (len(hashes) - 1 - i)``.  Two runs are
    equal only if they are the same object.

    Attributes:
        hashes: The blocks' chained content hashes, first to tail.
        block_ids: Their physical block ids, handed out by the allocator.
        depth: Chain index of the run's first block.
        parent: The run holding the block before the first one, None at the
            root.
        num_children: Number of cached runs whose parent this is (a leaf has
            none).
        seq: Creation sequence number of the tail, the LRU tie-break (older
            first).
        ref_count: Number of in-flight requests currently pinning the tail.
        last_access: Logical timestamp of the tail's most recent use (for LRU).
        created: The run's creation stamp, which its blocks above the tail keep.
    """

    __slots__ = ("hashes", "block_ids", "depth", "parent", "num_children", "seq",
                 "ref_count", "last_access", "created")

    def __init__(self, hashes: list[int], block_ids: list[BlockId], depth: int,
                 parent: Block | None, seq: int, created: float) -> None:
        self.hashes = hashes
        self.block_ids = block_ids
        self.depth = depth
        self.parent = parent
        self.num_children = 0
        self.seq = seq
        self.ref_count = 0
        self.last_access = created
        self.created = created

    @property
    def is_pinned(self) -> bool:
        """True while at least one running request still needs the tail."""
        return self.ref_count > 0

    def touch(self, now: float) -> None:
        """Record an access of the tail for LRU bookkeeping."""
        if now >= self.last_access:
            self.last_access = now

    def pin(self) -> None:
        self.ref_count += 1

    def unpin(self) -> None:
        if self.ref_count <= 0:
            raise ValueError("a run's tail was unpinned more times than pinned")
        self.ref_count -= 1


def count_blocks(num_tokens: int, block_size: int) -> int:
    """Number of blocks (including a trailing partial one) for ``num_tokens``."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return -(-num_tokens // block_size)
