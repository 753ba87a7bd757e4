"""Tests for the paged block allocator."""

import pytest

from repro.errors import AllocationError
from repro.kvcache.allocator import BlockAllocator


def test_allocate_and_free_round_trip():
    allocator = BlockAllocator(num_blocks=4, block_size=16)
    block_id = allocator.allocate()
    assert allocator.num_free_blocks == 3
    assert allocator.num_allocated_blocks == 1
    allocator.free(block_id)
    assert allocator.num_free_blocks == 4
    assert allocator.num_allocated_blocks == 0


def test_capacity_tokens():
    allocator = BlockAllocator(num_blocks=10, block_size=256)
    assert allocator.capacity_tokens == 2560


def test_exhaustion_raises():
    allocator = BlockAllocator(num_blocks=2, block_size=16)
    allocator.allocate()
    allocator.allocate()
    with pytest.raises(AllocationError):
        allocator.allocate()


def test_allocate_many_is_atomic():
    allocator = BlockAllocator(num_blocks=3, block_size=16)
    with pytest.raises(AllocationError):
        allocator.allocate_many(4)
    assert allocator.num_free_blocks == 3
    block_ids = allocator.allocate_many(3)
    assert len(block_ids) == 3
    assert allocator.num_free_blocks == 0


def test_double_free_rejected():
    allocator = BlockAllocator(num_blocks=2, block_size=16)
    block_id = allocator.allocate()
    allocator.free(block_id)
    with pytest.raises(AllocationError):
        allocator.free(block_id)
    assert allocator.num_free_blocks == 2


def test_membership_tracks_allocated_ids():
    allocator = BlockAllocator(num_blocks=2, block_size=16)
    block_id = allocator.allocate()
    assert block_id in allocator
    assert 999 not in allocator
    with pytest.raises(AllocationError):
        allocator.free(999)
    allocator.free(block_id)
    assert block_id not in allocator


def test_block_ids_are_unique_while_allocated():
    allocator = BlockAllocator(num_blocks=8, block_size=16)
    block_ids = allocator.allocate_many(8)
    assert sorted(block_ids) == list(range(8))
    allocator.free_many(block_ids[:3])
    assert sorted(allocator.allocate_many(3)) == sorted(block_ids[:3])


def test_invalid_construction():
    with pytest.raises(AllocationError):
        BlockAllocator(num_blocks=-1, block_size=16)
    with pytest.raises(AllocationError):
        BlockAllocator(num_blocks=4, block_size=0)
