"""KV-cache blocks and content hashing.

The KV cache is managed at the granularity of fixed-size blocks of tokens
(pages).  A block is identified for *allocation* purposes by an integer
:data:`BlockId` and for *prefix matching* purposes by a content hash that
chains the hash of the previous block with the tokens stored in this block —
the same scheme vLLM's automatic prefix caching uses, which guarantees that
two requests map to the same cached block only if they agree on the entire
prefix up to and including that block.  A cached block is one :class:`Block`,
which is also its node in the radix prefix tree.
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
    """One cached KV-cache block: a node of the radix prefix tree.

    The tree's only per-block object, as RadixAttention keeps the reference
    count and recency on the tree node itself.  Two blocks are equal only if
    they are the same object.

    Attributes:
        block_id: Physical block id handed out by the allocator.
        content_hash: Chained content hash of the block's tokens.
        parent: The block before this one in its chain, None at the root.
        num_children: Number of cached blocks whose parent this is (a leaf
            has none).
        seq: Creation sequence number, the LRU tie-break (older first).
        ref_count: Number of in-flight requests currently pinning the block.
        last_access: Logical timestamp of the most recent use (for LRU).
    """

    __slots__ = ("block_id", "content_hash", "parent", "num_children", "seq",
                 "ref_count", "last_access")

    def __init__(self, block_id: BlockId, content_hash: int, parent: Block | None,
                 seq: int, last_access: float) -> None:
        self.block_id = block_id
        self.content_hash = content_hash
        self.parent = parent
        self.num_children = 0
        self.seq = seq
        self.ref_count = 0
        self.last_access = last_access

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


def count_blocks(num_tokens: int, block_size: int) -> int:
    """Number of blocks (including a trailing partial one) for ``num_tokens``."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return -(-num_tokens // block_size)
