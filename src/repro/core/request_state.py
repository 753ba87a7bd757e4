"""Engine-side request state.

An :class:`EngineRequest` wraps a workload :class:`~repro.workloads.trace.Request`
with everything the engine tracks about it: its block hashes for the prefix
cache, when it entered the queue, its lifecycle state, and its latest JCT
calibration (the cached-token count and base score the scheduler last derived
for it, tagged with the prefix-cache version it was derived against).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.workloads.trace import Request


class RequestState(enum.Enum):
    """Lifecycle of a request inside an engine instance."""

    WAITING = "waiting"
    RUNNING = "running"
    FINISHED = "finished"
    REJECTED = "rejected"


@dataclass(eq=False)
class EngineRequest:
    """One request as tracked by an engine instance.

    Compared and hashed by identity: queues remove requests without a
    field-by-field comparison, and the scheduler keys its index on them.
    """

    request: Request
    block_hashes: tuple[int, ...]
    enqueue_time: float
    state: RequestState = RequestState.WAITING
    initial_cached_tokens: int = 0
    start_time: float | None = None
    finish_time: float | None = None
    cached_tokens_at_start: int = 0
    rejection_reason: str | None = None
    #: Memoised calibration: (prefix-cache version, cached tokens, base score).
    _calibration: tuple[int, int, float] | None = field(default=None, repr=False)

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def user_id(self) -> str:
        return self.request.user_id

    @property
    def num_tokens(self) -> int:
        return self.request.num_tokens

    def queueing_time(self, now: float) -> float:
        """How long the request has been waiting at time ``now``."""
        return max(now - self.enqueue_time, 0.0)

    # ------------------------------------------------- calibration memoisation

    def calibration(self, cache_version: int) -> tuple[int, float] | None:
        """Return (cached tokens, base score) if computed for ``cache_version``."""
        if self._calibration is not None and self._calibration[0] == cache_version:
            return self._calibration[1], self._calibration[2]
        return None

    def last_calibration(self) -> tuple[int, int, float] | None:
        """The most recent memo — (version, cached tokens, score).

        Unlike :meth:`calibration` this returns the memo even when the cache
        version has moved on; the scheduler uses the old match as the starting
        hint for an incremental re-lookup instead of re-walking from the root.
        """
        return self._calibration

    def store_calibration(self, cache_version: int, cached_tokens: int, score: float) -> None:
        """Memoise one calibration result."""
        self._calibration = (cache_version, cached_tokens, score)
