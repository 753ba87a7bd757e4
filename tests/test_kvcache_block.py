"""Tests for KV block hashing and block bookkeeping."""

import pytest

from repro.kvcache.block import Block, count_blocks, hash_token_blocks


def test_hash_token_blocks_only_full_blocks():
    tokens = list(range(100))
    hashes = hash_token_blocks(tokens, block_size=16)
    assert len(hashes) == 100 // 16


def test_hash_token_blocks_prefix_property():
    """Two sequences sharing a prefix share the leading block hashes."""
    a = list(range(64)) + [1, 2, 3, 4] * 8
    b = list(range(64)) + [9, 9, 9, 9] * 8
    ha = hash_token_blocks(a, block_size=16)
    hb = hash_token_blocks(b, block_size=16)
    assert ha[:4] == hb[:4]
    assert ha[4] != hb[4]


def test_hash_token_blocks_chained_not_positional():
    """A change early in the sequence changes every later block hash."""
    a = list(range(64))
    b = [999] + list(range(1, 64))
    ha = hash_token_blocks(a, block_size=16)
    hb = hash_token_blocks(b, block_size=16)
    assert all(x != y for x, y in zip(ha, hb))


def test_hash_token_blocks_invalid_block_size():
    with pytest.raises(ValueError):
        hash_token_blocks([1, 2, 3], block_size=0)


def test_count_blocks_helpers():
    assert count_blocks(100, 16) == 7
    assert count_blocks(96, 16) == 6
    assert count_blocks(0, 16) == 0
    with pytest.raises(ValueError):
        count_blocks(10, 0)


def run_of(count: int, last_access: float) -> Block:
    """A root run of ``count`` blocks created at ``last_access``."""
    return Block(list(range(100, 100 + count)), list(range(count)), depth=0,
                 parent=None, seq=count - 1, created=last_access)


def test_block_pinning():
    """A run keeps one pin count, for its tail."""
    block = run_of(3, last_access=0.0)
    assert not block.is_pinned
    block.pin()
    block.pin()
    assert block.ref_count == 2
    block.unpin()
    block.unpin()
    assert not block.is_pinned
    with pytest.raises(ValueError):
        block.unpin()


def test_block_touch_is_monotonic():
    """Touching stamps the tail; the blocks above it keep the creation stamp."""
    block = run_of(3, last_access=5.0)
    block.touch(3.0)
    assert block.last_access == 5.0
    block.touch(7.0)
    assert block.last_access == 7.0
    assert block.created == 5.0
