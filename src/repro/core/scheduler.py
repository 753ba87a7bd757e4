"""Request schedulers: FCFS, SRJF, and SRJF with continuous JCT calibration.

This module implements Algorithm 1 of the paper.  All schedulers answer one
question — which waiting request should run next? — but differ in what they
know:

* :class:`FCFSScheduler` — first come, first served (the vLLM/PagedAttention
  default, JCT-agnostic);
* :class:`SRJFScheduler` with ``continuous_calibration=False`` — shortest
  remaining job first using the JCT computed *when the request arrived*
  (the traditional JCT-based scheduler of §6.2, which misses cache-hit
  opportunities because the prefix cache keeps changing);
* :class:`SRJFScheduler` with ``continuous_calibration=True`` — PrefillOnly's
  scheduler: before every scheduling step the JCT of every waiting request is
  re-derived against the *current* prefix cache contents, and the score is
  offset by ``-λ · queueing_time`` to prevent starvation.

Both SRJF variants score a request's JCT with the paper's proxy, its number of
cache-miss tokens (:meth:`~repro.core.jct.JCTEstimator.proxy`), which §6.3
measures at a 0.987 Pearson correlation with the real JCT.

Continuous calibration is frontier-indexed.  A request whose hash chain
matches ``m`` cached blocks has two frontier hashes: its last matched block
``H[m-1]`` and its first missing block ``H[m]``.  The radix tree evicts only
leaves and block hashes are chained, so the cached part of any chain is a
prefix of it; the match can therefore shorten only if ``H[m-1]`` is evicted
and lengthen only if ``H[m]`` is inserted.  On a tiered manager the match is
the L1 match of ``m`` blocks plus a continuation of ``c`` blocks resident in
the host or cluster tier, and the request watches ``H[m-1]``, every
continuation block ``H[m:m+c]`` (its tier can change, or it can leave) and
the first block held in no tier, ``H[m+c]`` (it can arrive).  The scheduler
indexes every waiting request under its watched hashes, the manager reports
which of those hashes changed residency in any tier since the scheduler last
asked (:meth:`~repro.kvcache.manager.KVCacheManager.take_changes`, the union
of the radix tree's, the host store's and the shared cluster store's
records), and a scheduling step re-looks-up only the requests under a
changed hash.  A brownout or an outage changes every tier lookup at once;
the manager then reports None and every waiting request is re-derived.
Every other request keeps its cached base score, so a step costs one linear
argmin pass plus the few exact re-lookups, and its decision is bit-identical
to re-deriving every request's match from scratch.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.jct import JCTEstimator
from repro.core.request_state import EngineRequest
from repro.errors import SchedulingError
from repro.kvcache.manager import KVCacheManager

#: Paper default for the fairness parameter (score units per second of queueing).
DEFAULT_FAIRNESS_LAMBDA = 500.0


@dataclass(frozen=True)
class SchedulerDecision:
    """Outcome of one scheduling step."""

    request: EngineRequest
    score: float
    cached_tokens: int


class Scheduler(abc.ABC):
    """Policy that picks the next waiting request to execute."""

    name: str = "scheduler"

    @abc.abstractmethod
    def select(self, queue: list[EngineRequest], kv: KVCacheManager,
               now: float) -> SchedulerDecision | None:
        """Pick the next request (without removing it from ``queue``).

        Returns ``None`` when the queue is empty.
        """

    def on_submit(self, request: EngineRequest, kv: KVCacheManager, now: float) -> None:
        """Hook called when a request enters the waiting queue."""

    def on_remove(self, request: EngineRequest) -> None:
        """Hook called when a request leaves the waiting queue for any reason."""


class FCFSScheduler(Scheduler):
    """First-come-first-served scheduling (JCT-agnostic baseline)."""

    name = "fcfs"

    def select(self, queue: list[EngineRequest], kv: KVCacheManager,
               now: float) -> SchedulerDecision | None:
        if not queue:
            return None
        request = min(queue, key=lambda r: (r.enqueue_time, r.request_id))
        cached = kv.lookup(request.block_hashes)
        return SchedulerDecision(request=request, score=request.enqueue_time, cached_tokens=cached)


class SRJFScheduler(Scheduler):
    """Shortest-remaining-job-first, optionally with continuous JCT calibration.

    With continuous calibration, :meth:`select` works off the frontier index
    described in the module docstring: it re-looks-up the requests under a
    changed watched hash and those not indexed yet — with the exact
    :meth:`~repro.kvcache.manager.KVCacheManager.lookup_from` on a GPU-only
    manager, and with
    :meth:`~repro.kvcache.manager.KVCacheManager.lookup_with_tiers` on a
    tiered one — then takes the argmin of ``base - λ · queueing_time(now)``
    over the cached base scores, ties broken by request id.  The index
    describes one manager at a time, and :meth:`on_remove` drops a request
    from it, so it holds only waiting requests.

    Args:
        fairness_lambda: The λ of Algorithm 1 — score units credited per second
            of queueing time.  Larger values improve worst-case latency at the
            cost of average latency (Figure 11).
        continuous_calibration: Re-derive every waiting request's cached-token
            count against the current prefix cache before each scheduling step
            (PrefillOnly's behaviour).  When False, the cached-token count
            captured at submit time is used forever (traditional SRJF).
    """

    def __init__(self, *, fairness_lambda: float = DEFAULT_FAIRNESS_LAMBDA,
                 continuous_calibration: bool = True) -> None:
        if fairness_lambda < 0:
            raise SchedulingError("fairness_lambda must be non-negative")
        self._lambda = fairness_lambda
        self._continuous = continuous_calibration
        self.name = "srjf-calibrated" if continuous_calibration else "srjf"
        #: The manager the frontier index describes.
        self._kv: KVCacheManager | None = None
        #: Indexed request -> (cached tokens, base score, frontier hashes).
        self._entries: dict[EngineRequest, tuple[int, float, tuple[int, ...]]] = {}
        #: Frontier hash -> the indexed requests whose match it bounds.
        self._frontier: dict[int, set[EngineRequest]] = {}

    @property
    def fairness_lambda(self) -> float:
        return self._lambda

    @property
    def continuous_calibration(self) -> bool:
        return self._continuous

    def on_submit(self, request: EngineRequest, kv: KVCacheManager, now: float) -> None:
        request.initial_cached_tokens = kv.lookup(request.block_hashes)

    def on_remove(self, request: EngineRequest) -> None:
        self._forget(request)
        if not self._entries and self._kv is not None:
            # Nothing is indexed, so no recorded change can matter any more.
            self._kv.take_changes(self._frontier)

    def _calibrate(self, request: EngineRequest, kv: KVCacheManager) -> tuple[int, float]:
        """Return (cached tokens, base score) for arrival-time SRJF.

        The cached-token count is the one :meth:`on_submit` captured; it is
        never re-derived, which is what makes this the traditional JCT-based
        scheduler.
        """
        cached = request.initial_cached_tokens
        return cached, JCTEstimator.proxy(request.num_tokens, cached)

    # ------------------------------------------------------- frontier index

    def _refresh(self, kv: KVCacheManager) -> dict:
        """Bring the frontier index up to date with ``kv``; return its entries.

        Drops every indexed request whose watched hash changed residency in
        any tier since the previous step, so the next pass re-looks it up.
        """
        changed = kv.take_changes(self._frontier)
        if changed is None or kv is not self._kv:
            # A manager this index does not describe: start from scratch.
            self._kv = kv
            self._entries.clear()
            self._frontier.clear()
        else:
            for content_hash in changed:
                for request in self._frontier.pop(content_hash, ()):
                    self._forget(request)
        return self._entries

    def _index(self, request: EngineRequest,
               kv: KVCacheManager) -> tuple[int, float, tuple[int, ...]]:
        """Re-derive ``request``'s match, index it under its watched hashes
        and return its entry.

        A tiered match resolves the whole hierarchy: tokens resident in the
        host or cluster tiers count as cached — they will be streamed, not
        recomputed — and the modelled transfer time is added back to the
        score in compute-token equivalents, so a host-resident prefix ranks
        between a GPU hit and a full miss.
        """
        hashes = request.block_hashes
        block_size = kv.block_size
        if kv.has_tiers:
            lookup = kv.lookup_with_tiers(hashes)
            cached = lookup.total_tokens
            matched = lookup.gpu_tokens // block_size
            score = JCTEstimator.proxy(request.num_tokens, cached) + lookup.penalty_tokens
        else:
            previous = request.last_calibration()
            hint = previous[1] if previous is not None else request.initial_cached_tokens
            cached = kv.lookup_from(hashes, hint // block_size)
            matched = cached // block_size
            score = JCTEstimator.proxy(request.num_tokens, cached)
        request.store_calibration(kv.cache_version, cached, score)
        # The L1 frontier H[m-1], the tier continuation, and the first block
        # held in no tier.
        frontier = hashes[max(matched - 1, 0):cached // block_size + 1]
        entry = self._entries[request] = (cached, score, frontier)
        for content_hash in frontier:
            bucket = self._frontier.get(content_hash)
            if bucket is None:
                self._frontier[content_hash] = {request}
            else:
                bucket.add(request)
        return entry

    def _forget(self, request: EngineRequest) -> None:
        """Drop ``request`` from the index (a no-op if it is not indexed)."""
        entry = self._entries.pop(request, None)
        if entry is None:
            return
        for content_hash in entry[2]:
            bucket = self._frontier.get(content_hash)
            if bucket is not None:
                bucket.discard(request)
                if not bucket:
                    del self._frontier[content_hash]

    def select(self, queue: list[EngineRequest], kv: KVCacheManager,
               now: float) -> SchedulerDecision | None:
        if not queue:
            return None
        if self._continuous:
            entries, calibrate = self._refresh(kv), self._index
        else:
            entries, calibrate = {}, self._calibrate
        fairness = self._lambda
        best: EngineRequest | None = None
        best_score = 0.0
        best_cached = 0
        for request in queue:
            entry = entries.get(request)
            if entry is None:
                entry = calibrate(request, kv)
            # request.queueing_time(now), inlined: this loop runs once per
            # waiting request per step.
            queued = now - request.enqueue_time
            if 0.0 > queued:
                queued = 0.0
            score = entry[1] - fairness * queued
            if (best is None or score < best_score
                    or (score == best_score and request.request_id < best.request_id)):
                best, best_score, best_cached = request, score, entry[0]
        return SchedulerDecision(request=best, score=best_score, cached_tokens=best_cached)


def make_scheduler(policy: str, *, fairness_lambda: float = DEFAULT_FAIRNESS_LAMBDA) -> Scheduler:
    """Build a scheduler by policy name.

    Args:
        policy: ``"fcfs"``, ``"srjf"`` (JCT at arrival time), or
            ``"srjf-calibrated"`` (PrefillOnly's continuous calibration).
        fairness_lambda: λ for the SRJF variants.
    """
    if policy == "fcfs":
        return FCFSScheduler()
    if policy == "srjf":
        return SRJFScheduler(fairness_lambda=fairness_lambda, continuous_calibration=False)
    if policy == "srjf-calibrated":
        return SRJFScheduler(fairness_lambda=fairness_lambda, continuous_calibration=True)
    raise SchedulingError(
        f"unknown scheduling policy {policy!r}; expected 'fcfs', 'srjf', or 'srjf-calibrated'"
    )
