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
Every other request keeps its cached base score.

Picking the minimum costs O(log n) in the queue length.  A request's score
at time ``now`` is ``base - λ·max(now - enqueue_time, 0)``.  For a request
that is not ahead of the clock this is ``key - λ·now`` with
``key = base + λ·enqueue_time``, which stays fixed while the request waits,
so the scheduler keeps its indexed requests in a lazy min-heap on ``key``.
A step pops entries in key order and scores each live one with the exact
expression above (ties to the lower request id); it stops once the next key
lies outside a rounding window of the best exact score, where no later entry
can score as low.  An entry goes stale when its request is re-derived or
leaves the queue; stale entries are dropped when popped, and the heap is
rebuilt from its live entries once stale ones outnumber them.  A step
therefore costs O(log n) heap work per re-derived or popped entry plus the
few exact re-lookups, and its decision and score are bit-identical to
scoring every waiting request.

The window is a proof, not a tolerance.  Assume λ, the clock, every enqueue
time and every base score are finite and non-negative, and no product
underflows.  Let ``u = 2**-53`` and ``T = max(now, h)``, where ``h`` is the
latest enqueue time of any request ever indexed, so ``T >= max(now, e)`` for
every indexed enqueue time ``e``.  In exact arithmetic a request scores
``key - λ·max(now, e) >= key - λT``.  Rounding moves a computed key by at
most ``3u·key`` and a computed score by at most ``4u·(base + λT)``, so every
entry whose key is at least ``k`` scores at least ``k - λT - 7u·(k + λT)``.
Evaluating ``k - λT - best`` in floating point errs by at most
``5u·(k + λT)``.  The step stops when that computed difference exceeds
``2**-48·(k + λT)`` (32u), so the exact difference exceeds
``26u·(k + λT)``: every remaining entry scores strictly above the best, and
none can win or tie.  A request stamped ahead of the clock scores its plain
base score, below ``key - λ·now``; ``T`` covers it, and it is scored exactly
once popped.
"""

from __future__ import annotations

import abc
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from repro.core.jct import JCTEstimator
from repro.core.request_state import EngineRequest
from repro.errors import SchedulingError
from repro.kvcache.manager import KVCacheManager

#: Paper default for the fairness parameter (score units per second of queueing).
DEFAULT_FAIRNESS_LAMBDA = 500.0

#: The SRJF heap's relative rounding window, 32 units in the last place (see
#: the module docstring).
_WINDOW = 2.0 ** -48


class SchedulerDecision(NamedTuple):
    """Outcome of one scheduling step (a named tuple: built on every step)."""

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
    tiered one — then takes the minimum of ``base - λ · queueing_time(now)``
    from the key heap, ties broken by request id.  Arrival-time SRJF keeps
    the base score :meth:`on_submit` captured and picks from the same heap.
    The index describes one manager at a time and holds only waiting
    requests: :meth:`on_submit` hands it a request, :meth:`on_remove` drops
    one, and a request that reached the queue without :meth:`on_submit` is
    caught by a count check.

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
        #: Indexed request -> its live heap entry: (key, push sequence,
        #: request, cached tokens, base score, watched hashes).
        self._entries: dict[EngineRequest, tuple] = {}
        #: Frontier hash -> the indexed requests whose match it bounds.
        self._frontier: dict[int, set[EngineRequest]] = {}
        #: Waiting requests the next :meth:`select` indexes (an ordered set).
        self._pending: dict[EngineRequest, None] = {}
        #: Lazy min-heap of entries; those not in ``_entries`` are stale.
        self._heap: list[tuple] = []
        #: Entries pushed so far; an entry's push number breaks key ties.
        self._pushes = 0
        #: Latest enqueue time of any request ever indexed.
        self._horizon = 0.0

    @property
    def fairness_lambda(self) -> float:
        return self._lambda

    @property
    def continuous_calibration(self) -> bool:
        return self._continuous

    def on_submit(self, request: EngineRequest, kv: KVCacheManager, now: float) -> None:
        request.initial_cached_tokens = kv.lookup(request.block_hashes)
        self._pending[request] = None

    def on_remove(self, request: EngineRequest) -> None:
        if self._pending:
            self._pending.pop(request, None)
        self._forget(request)
        if not self._entries:
            # Every heap entry is stale, and no recorded change can matter.
            self._heap.clear()
            if self._kv is not None:
                self._kv.take_changes(self._frontier)

    def _calibrate(self, request: EngineRequest,
                   kv: KVCacheManager) -> tuple[int, float, tuple[int, ...]]:
        """Return (cached tokens, base score, no watched hashes) for
        arrival-time SRJF.

        The cached-token count is the one :meth:`on_submit` captured; it is
        never re-derived, which is what makes this the traditional JCT-based
        scheduler.
        """
        cached = request.initial_cached_tokens
        return cached, JCTEstimator.proxy(request.num_tokens, cached), ()

    # ------------------------------------------------------- frontier index

    def _refresh(self, kv: KVCacheManager) -> None:
        """Bring the frontier index up to date with ``kv``.

        Hands every indexed request whose watched hash changed residency in
        any tier since the previous step back to :attr:`_pending`, so this
        step re-looks it up.
        """
        changed = kv.take_changes(self._frontier)
        pending = self._pending
        if changed is None or kv is not self._kv:
            # A manager this index does not describe: start from scratch.
            self._kv = kv
            pending.update(dict.fromkeys(self._entries))
            self._entries.clear()
            self._frontier.clear()
            self._heap.clear()
            return
        for content_hash in changed:
            for request in self._frontier.pop(content_hash, ()):
                self._forget(request)
                pending[request] = None

    def _index(self, request: EngineRequest,
               kv: KVCacheManager) -> tuple[int, float, tuple[int, ...]]:
        """Re-derive ``request``'s match, index it under its watched hashes
        and return (cached tokens, base score, watched hashes).

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
        for content_hash in frontier:
            bucket = self._frontier.get(content_hash)
            if bucket is None:
                self._frontier[content_hash] = {request}
            else:
                bucket.add(request)
        return cached, score, frontier

    def _forget(self, request: EngineRequest) -> None:
        """Drop ``request`` from the index (a no-op if it is not indexed);
        its heap entry goes stale."""
        entry = self._entries.pop(request, None)
        if entry is None:
            return
        for content_hash in entry[5]:
            bucket = self._frontier.get(content_hash)
            if bucket is not None:
                bucket.discard(request)
                if not bucket:
                    del self._frontier[content_hash]

    def select(self, queue: list[EngineRequest], kv: KVCacheManager,
               now: float) -> SchedulerDecision | None:
        if not queue:
            return None
        entries, pending, heap = self._entries, self._pending, self._heap
        if self._continuous:
            self._refresh(kv)
        if len(entries) + len(pending) != len(queue):
            # Requests that reached the queue without on_submit.
            for request in queue:
                if request not in entries:
                    pending[request] = None
        fairness = self._lambda
        horizon = self._horizon
        if pending:
            calibrate = self._index if self._continuous else self._calibrate
            pushes = self._pushes
            for request in pending:
                cached, base, frontier = calibrate(request, kv)
                enqueued = request.enqueue_time
                if enqueued > horizon:
                    horizon = enqueued
                pushes += 1
                entry = entries[request] = (base + fairness * enqueued, pushes, request,
                                            cached, base, frontier)
                heappush(heap, entry)
            pending.clear()
            self._pushes, self._horizon = pushes, horizon
        if len(heap) > 2 * len(entries):
            # Stale entries outnumber live ones: rebuild from the live ones.
            heap[:] = entries.values()
            heapify(heap)
        credit = fairness * (horizon if horizon > now else now)
        best = None
        best_score = 0.0
        popped = []
        while heap:
            key = heap[0][0]
            if best is not None and key - credit - best_score > (key + credit) * _WINDOW:
                break
            entry = heappop(heap)
            request = entry[2]
            if entries.get(request) is not entry:
                continue
            popped.append(entry)
            # request.queueing_time(now), inlined.
            queued = now - request.enqueue_time
            if 0.0 > queued:
                queued = 0.0
            score = entry[4] - fairness * queued
            if (best is None or score < best_score
                    or (score == best_score and request.request_id < best[2].request_id)):
                best, best_score = entry, score
        for entry in popped:
            heappush(heap, entry)
        return SchedulerDecision(best[2], best_score, best[3])


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
