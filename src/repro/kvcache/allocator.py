"""Paged KV-cache block allocator.

A fixed pool of physical block ids is handed out to requests (scratch
allocations during execution) and to the prefix cache (cached blocks that
survive between requests).  The allocator itself is policy-free: eviction
decisions are made by the prefix cache / manager, which then return ids here.
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.kvcache.block import BlockId


class BlockAllocator:
    """Fixed-capacity allocator of KV-cache block ids.

    Args:
        num_blocks: Total number of physical blocks in the pool.
        block_size: Tokens per block (carried for reporting convenience).
    """

    def __init__(self, num_blocks: int, block_size: int) -> None:
        if num_blocks < 0:
            raise AllocationError("num_blocks must be non-negative")
        if block_size <= 0:
            raise AllocationError("block_size must be positive")
        self._num_blocks = num_blocks
        self._block_size = block_size
        self._free_ids: list[BlockId] = list(range(num_blocks - 1, -1, -1))
        self._allocated: set[BlockId] = set()

    # ---------------------------------------------------------------- state

    @property
    def num_blocks(self) -> int:
        """Total pool size in blocks."""
        return self._num_blocks

    @property
    def block_size(self) -> int:
        """Tokens per block."""
        return self._block_size

    @property
    def num_free_blocks(self) -> int:
        """Blocks currently available for allocation."""
        return len(self._free_ids)

    @property
    def num_allocated_blocks(self) -> int:
        """Blocks currently handed out."""
        return len(self._allocated)

    @property
    def capacity_tokens(self) -> int:
        """Total pool size in tokens."""
        return self._num_blocks * self._block_size

    def __contains__(self, block_id: BlockId) -> bool:
        """True while ``block_id`` is handed out."""
        return block_id in self._allocated

    # ------------------------------------------------------------ allocation

    def allocate(self) -> BlockId:
        """Allocate one block, failing if the pool is exhausted.

        Raises:
            AllocationError: if no free block is available.
        """
        if not self._free_ids:
            raise AllocationError(
                f"KV cache exhausted: all {self._num_blocks} blocks are allocated"
            )
        block_id = self._free_ids.pop()
        self._allocated.add(block_id)
        return block_id

    def allocate_many(self, count: int) -> list[BlockId]:
        """Allocate ``count`` scratch blocks, failing atomically.

        Either all blocks are allocated or none are.
        """
        if count < 0:
            raise AllocationError("cannot allocate a negative number of blocks")
        if count > self.num_free_blocks:
            raise AllocationError(
                f"requested {count} blocks but only {self.num_free_blocks} are free"
            )
        return [self.allocate() for _ in range(count)]

    def free(self, block_id: BlockId) -> None:
        """Return a block to the pool.

        Raises:
            AllocationError: if the block is not currently allocated.
        """
        try:
            self._allocated.remove(block_id)
        except KeyError:
            raise AllocationError(f"block {block_id} is not allocated") from None
        self._free_ids.append(block_id)

    def free_many(self, block_ids: list[BlockId]) -> None:
        """Return several blocks to the pool."""
        for block_id in block_ids:
            self.free(block_id)
