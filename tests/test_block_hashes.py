"""Differential oracle for :meth:`repro.workloads.trace.TokenSequence.block_hashes`.

``block_hashes`` walks segments: it chains each segment's whole blocks in one
loop and builds a multi-piece content tuple only for a block that straddles a
segment boundary.  The reference below is the per-block walk it replaced: for
every full block, collect the ``(content_id, offset-in-segment, piece-length)``
pieces that cover it and chain their tuple onto the previous block's hash.
The two must agree hash for hash, with the run memo cold and warm; warm,
the walk must build the whole-block runs from the memo's tuples and chain
only the blocks that straddle a segment boundary.

Runs under the shared ``oracle-run`` hypothesis profile (``tests/conftest.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.workloads.trace
from repro.kvcache.block import ROOT_HASH, hash_chain
from repro.workloads.trace import _RUN_HASH_MEMO, TokenSegment, TokenSequence


def reference_block_hashes(segments: tuple[TokenSegment, ...],
                           block_size: int) -> tuple[int, ...]:
    """The per-block walk: one content tuple built piece by piece per block."""
    hashes: list[int] = []
    parent = ROOT_HASH
    segment_index = 0
    offset_in_segment = 0
    num_full_blocks = sum(segment.length for segment in segments) // block_size
    for _ in range(num_full_blocks):
        remaining = block_size
        pieces: list[tuple[int, int, int]] = []
        while remaining > 0:
            segment = segments[segment_index]
            take = min(remaining, segment.length - offset_in_segment)
            pieces.append((segment.content_id, offset_in_segment, take))
            remaining -= take
            offset_in_segment += take
            if offset_in_segment == segment.length:
                segment_index += 1
                offset_in_segment = 0
        parent = hash_chain(parent, tuple(pieces))
        hashes.append(parent)
    return tuple(hashes)


def straddling_blocks(segments: tuple[TokenSegment, ...], block_size: int) -> int:
    """How many full blocks cover more than one segment."""
    count, start = 0, 0
    boundaries = []
    for segment in segments[:-1]:
        start += segment.length
        boundaries.append(start)
    num_full_blocks = sum(segment.length for segment in segments) // block_size
    for block in range(num_full_blocks):
        low, high = block * block_size, (block + 1) * block_size
        count += any(low < boundary < high for boundary in boundaries)
    return count


def counted_walk(segments: tuple[TokenSegment, ...], block_size: int) -> tuple[tuple, int]:
    """A fresh sequence's hashes and the number of blocks its walk chained."""
    calls = 0

    def counting_chain(parent, content):
        nonlocal calls
        calls += 1
        return hash_chain(parent, content)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.workloads.trace, "hash_chain", counting_chain)
        hashes = TokenSequence(segments).block_hashes(block_size)
    return hashes, calls


@settings.get_profile("oracle-run")
@given(
    # A small content-id range makes segments repeat, so equal pieces recur
    # at different offsets and in different blocks.
    segments=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 1_000)), min_size=1, max_size=8,
    ),
    block_size=st.sampled_from([1, 2, 3, 16, 255, 256, 511]),
)
def test_block_hashes_match_the_per_block_walk(segments, block_size):
    segments = tuple(TokenSegment(content_id, length) for content_id, length in segments)
    expected = reference_block_hashes(segments, block_size)
    _RUN_HASH_MEMO.clear()
    cold, _ = counted_walk(segments, block_size)
    runs = dict(_RUN_HASH_MEMO)
    warm, chained = counted_walk(segments, block_size)
    assert cold == expected
    # Warm, an equal sequence is equal and built from the memo's run tuples:
    # it adds no run and chains only the blocks that straddle a boundary.
    assert warm == cold
    assert _RUN_HASH_MEMO == runs
    assert chained == straddling_blocks(segments, block_size)
    assert chained + sum(len(run) for run in runs.values()) == len(warm)


def test_block_hashes_pin_the_content_tuple_format():
    """A literal the oracle cannot catch: both walks drifting together.

    The values are CPython's (>= 3.8, 64-bit) hashes of the content tuples, so
    a change to the tuple format fails here even when it stays self-consistent.
    """
    sequence = TokenSequence(
        [TokenSegment(1, 128), TokenSegment(10000, 300), TokenSegment(7, 100)]
    )
    assert sequence.block_hashes(256) == (7964033146986668246, 9170567933712555675)


def test_a_run_is_keyed_by_its_parent_hash():
    """Two sequences that reach a shared segment at the same offsets after
    different content must hash it differently: the run memo's key holds the
    parent hash, not only the segment and its span."""
    shared = TokenSegment(5, 1_000)
    first = TokenSequence([TokenSegment(1, 100), shared])
    second = TokenSequence([TokenSegment(2, 100), shared])
    _RUN_HASH_MEMO.clear()
    one, two = first.block_hashes(64), second.block_hashes(64)
    assert one == reference_block_hashes(first.segments, 64)
    assert two == reference_block_hashes(second.segments, 64)
    assert not set(one) & set(two)
