"""Request and trace containers shared by all workloads.

Requests carry their token content as a list of :class:`TokenSegment` pieces
rather than as raw token ids: a segment is a contiguous run of tokens with a
content identifier (e.g. "user 7's profile", "post 1234").  Two requests that
start with the same segments share a prefix, and the block hashes derived from
the segment structure are identical for the shared part — which is all the
prefix cache needs.  This keeps a 60,000-token request at a handful of Python
objects instead of 60,000 integers.

Hashing is memoized per *run*: the whole blocks a segment covers chain from
the hash of the block before them, so their hashes are a pure function of
the key ``(parent hash, content_id, offset, end, block_size)``, where
``[offset, end)`` is the segment's token span of whole blocks.  One
process-wide table maps that key to the run's hash tuple, so a shared prefix
(a user's profile, returning with each of that user's posts) is hashed once
per process, and a sequence computes only the blocks that straddle a segment
boundary and the runs no earlier sequence reached.  The parent hash in the
key is what keeps two sequences apart that reach the same segment at the
same offsets after different content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.kvcache.block import ROOT_HASH, hash_chain


#: Memoized hash runs: ``(parent hash, content_id, offset, end, block_size)``
#: -> the chained hashes of the segment's whole blocks in ``[offset, end)``
#: (see the module docstring).  Cleared wholesale when full — residency is a
#: speed concern only.
_RUN_HASH_MEMO: dict[tuple, tuple[int, ...]] = {}
_RUN_HASH_MEMO_MAX = 65_536


def _hash_run(parent: int, content_id: int, offset: int, end: int,
              block_size: int) -> tuple[int, ...]:
    """The chained hashes of a segment's whole blocks in ``[offset, end)``."""
    hashes = []
    for start in range(offset, end, block_size):
        parent = hash_chain(parent, ((content_id, start, block_size),))
        hashes.append(parent)
    return tuple(hashes)


@dataclass(frozen=True)
class TokenSegment:
    """A contiguous run of tokens with a single content identity.

    Attributes:
        content_id: Identifier of the content the tokens encode.  Two segments
            with the same ``content_id`` represent the same token values.
        length: Number of tokens in the segment.
    """

    content_id: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise WorkloadError("segment length must be positive")


class TokenSequence:
    """An ordered list of segments plus cached per-block content hashes."""

    def __init__(self, segments: list[TokenSegment] | tuple[TokenSegment, ...]) -> None:
        if not segments:
            raise WorkloadError("a token sequence needs at least one segment")
        self._segments = tuple(segments)
        self._num_tokens = sum(segment.length for segment in self._segments)
        self._hash_cache: dict[int, tuple[int, ...]] = {}

    @property
    def segments(self) -> tuple[TokenSegment, ...]:
        return self._segments

    @property
    def num_tokens(self) -> int:
        """Total token count of the sequence."""
        return self._num_tokens

    def __len__(self) -> int:
        return self._num_tokens

    def block_hashes(self, block_size: int) -> tuple[int, ...]:
        """Chained content hashes of the sequence's full blocks.

        Each block's content tuple is the list of (content_id, offset-in-segment,
        piece-length) spans that cover the block, so two sequences produce the
        same hash for block *i* exactly when they agree token-for-token on the
        first ``(i + 1) * block_size`` tokens.  The walk goes segment by
        segment: the whole blocks inside a segment are one run, looked up in
        the run memo (see the module docstring) and chained only on a miss,
        and only a block that straddles a segment boundary collects several
        pieces.
        """
        if block_size <= 0:
            raise WorkloadError("block_size must be positive")
        cached = self._hash_cache.get(block_size)
        if cached is not None:
            return cached

        memo = _RUN_HASH_MEMO
        hashes: list[int] = []
        parent = ROOT_HASH
        # The block that straddles segment boundaries, as its pieces so far.
        pieces: list[tuple[int, int, int]] = []
        filled = 0
        for segment in self._segments:
            content_id = segment.content_id
            length = segment.length
            offset = 0
            if filled:
                offset = min(block_size - filled, length)
                pieces.append((content_id, 0, offset))
                filled += offset
                if filled < block_size:
                    continue
                parent = hash_chain(parent, tuple(pieces))
                hashes.append(parent)
                filled = 0
            whole_end = length - (length - offset) % block_size
            if whole_end > offset:
                key = (parent, content_id, offset, whole_end, block_size)
                run = memo.get(key)
                if run is None:
                    run = _hash_run(parent, content_id, offset, whole_end, block_size)
                    if len(memo) >= _RUN_HASH_MEMO_MAX:
                        memo.clear()
                    memo[key] = run
                hashes += run
                parent = run[-1]
            if whole_end < length:
                pieces = [(content_id, whole_end, length - whole_end)]
                filled = length - whole_end

        result = tuple(hashes)
        self._hash_cache[block_size] = result
        return result

    def shared_prefix_tokens(self, other: "TokenSequence") -> int:
        """Number of leading tokens this sequence shares with ``other``.

        Used by workload-level analysis (e.g. the theoretical best-case cache
        hit rate); the engines themselves only ever see block hashes.
        """
        shared = 0
        for mine, theirs in zip(self._segments, other._segments):
            if mine.content_id != theirs.content_id:
                break
            take = min(mine.length, theirs.length)
            shared += take
            if mine.length != theirs.length:
                break
        return shared


@dataclass
class Request:
    """One prefill-only request.

    Attributes:
        request_id: Unique id within a trace.
        user_id: Originating user, used for user-id-based routing.
        sequence: Token content.
        allowed_outputs: The caller-provided list of acceptable output tokens
            (e.g. ``("Yes", "No")``); the engine samples only from this list.
        arrival_time: Assigned by the arrival process (seconds).
        metadata: Free-form workload annotations (post id, month count, ...).
    """

    request_id: int
    user_id: str
    sequence: TokenSequence
    allowed_outputs: tuple[str, ...] = ("Yes", "No")
    arrival_time: float = 0.0
    metadata: dict = field(default_factory=dict)

    @property
    def num_tokens(self) -> int:
        return self.sequence.num_tokens

    def block_hashes(self, block_size: int) -> tuple[int, ...]:
        return self.sequence.block_hashes(block_size)


@dataclass
class WorkloadTrace:
    """A complete workload: an ordered list of requests plus its description."""

    name: str
    requests: list[Request]
    description: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.requests:
            raise WorkloadError(f"workload {self.name!r} generated no requests")

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    @property
    def total_tokens(self) -> int:
        """Total input tokens across the trace (Table 1's last column)."""
        return sum(request.num_tokens for request in self.requests)

    @property
    def num_users(self) -> int:
        return len({request.user_id for request in self.requests})

    @property
    def max_request_tokens(self) -> int:
        return max(request.num_tokens for request in self.requests)

    @property
    def mean_request_tokens(self) -> float:
        return self.total_tokens / len(self.requests)

    def summary(self) -> dict:
        """Table-1 style summary of the trace."""
        lengths = sorted(request.num_tokens for request in self.requests)
        summary = {
            "dataset": self.name,
            "num_users": self.num_users,
            "num_requests": len(self.requests),
            "min_request_tokens": lengths[0],
            "max_request_tokens": lengths[-1],
            "mean_request_tokens": round(self.mean_request_tokens, 1),
            "total_tokens": self.total_tokens,
        }
        summary.update(self.description)
        return summary
