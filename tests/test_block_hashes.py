"""Differential oracle for :meth:`repro.workloads.trace.TokenSequence.block_hashes`.

``block_hashes`` walks segments: it chains each segment's whole blocks in one
loop and builds a multi-piece content tuple only for a block that straddles a
segment boundary.  The reference below is the per-block walk it replaced: for
every full block, collect the ``(content_id, offset-in-segment, piece-length)``
pieces that cover it and chain their tuple onto the previous block's hash.
The two must agree hash for hash, with the whole-sequence memo cold and warm.

Runs under the shared ``oracle-run`` hypothesis profile (``tests/conftest.py``).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.kvcache.block import ROOT_HASH, hash_chain
from repro.workloads.trace import _SEQUENCE_HASH_MEMO, TokenSegment, TokenSequence


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
    _SEQUENCE_HASH_MEMO.clear()
    cold = TokenSequence(segments).block_hashes(block_size)
    warm = TokenSequence(segments).block_hashes(block_size)
    assert cold == expected
    assert warm is cold


def test_block_hashes_pin_the_content_tuple_format():
    """A literal the oracle cannot catch: both walks drifting together.

    The values are CPython's (>= 3.8, 64-bit) hashes of the content tuples, so
    a change to the tuple format fails here even when it stays self-consistent.
    """
    sequence = TokenSequence(
        [TokenSegment(1, 128), TokenSegment(10000, 300), TokenSegment(7, 100)]
    )
    assert sequence.block_hashes(256) == (7964033146986668246, 9170567933712555675)
