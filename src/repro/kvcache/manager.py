"""KV-cache manager: the storage interface engines program against.

The manager owns one GPU's KV-cache budget (computed by the engine's profile
run), a block allocator over that budget, a radix-tree prefix cache, and an
optional CPU offload store.  Engines interact with it through three calls:

* :meth:`lookup` — how many of this request's tokens are already cached (used
  by the scheduler's continuous JCT calibration);
* :meth:`begin_execution` — pin the cached prefix and, for baseline engines
  that must keep the full KV cache resident during the forward pass, reserve
  scratch blocks for the uncached tokens (this is the reservation that lets a
  long request evict other requests' cached prefixes — the "prefix cache
  throttling" visible in Figure 9);
* :meth:`finish_execution` — release the pins, return scratch blocks, and
  commit the request's KV: the prefix that fits stays in the GPU prefix cache
  and the suffix that does not is discarded, or offloaded when the manager has
  a host tier or a CPU offload store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Sequence

from repro.errors import AllocationError, CapacityError, TierError
from repro.kvcache.allocator import BlockAllocator
from repro.kvcache.block import Block, count_blocks
from repro.kvcache.offload import CPUOffloadStore
from repro.kvcache.prefix_tree import PrefixMatch, RadixPrefixCache, TreeSnapshot
from repro.kvcache.tiers.store import TieredPrefixStore, TierLookup


@dataclass
class ExecutionLease:
    """Resources held by one request while it executes."""

    block_hashes: tuple[int, ...]
    num_tokens: int
    #: The pinned frontier of the cached prefix (None without a hit).
    frontier: Block | None = None
    scratch_blocks: list[Block] = field(default_factory=list)
    cached_tokens: int = 0


@dataclass(frozen=True)
class CacheStats:
    """Aggregate prefix-cache statistics for one engine instance."""

    requests: int
    requests_with_hit: int
    tokens_total: int
    tokens_hit: int
    block_stats: dict
    offload_stats: dict | None
    #: Per-tier counters when the manager runs a tiered hierarchy, else None.
    #: Carries the :class:`~repro.kvcache.tiers.store.TierStats` fields plus
    #: ``tokens_hit_host`` / ``tokens_hit_cluster`` (tokens served from below
    #: L1 instead of being recomputed).
    tier_stats: dict | None = None

    @property
    def request_hit_rate(self) -> float:
        return self.requests_with_hit / self.requests if self.requests else 0.0

    @property
    def token_hit_rate(self) -> float:
        return self.tokens_hit / self.tokens_total if self.tokens_total else 0.0


class KVCacheManager:
    """Per-instance KV-cache manager.

    Args:
        capacity_tokens: KV-cache budget in tokens (from the engine's profile run).
        block_size: Tokens per block.
        offload_store: Optional CPU offload store that a commit's overflow
            spills into.
        enable_prefix_caching: When False, lookups always miss and commits are
            no-ops (used to model engines with prefix caching disabled).
    """

    def __init__(self, capacity_tokens: int, *, block_size: int = 256,
                 offload_store: CPUOffloadStore | None = None,
                 tiers: TieredPrefixStore | None = None,
                 enable_prefix_caching: bool = True) -> None:
        if capacity_tokens < 0:
            raise CapacityError("capacity_tokens must be non-negative")
        if tiers is not None and offload_store is not None:
            raise TierError(
                "a tiered manager owns its host store through the tier "
                "hierarchy; pass either `tiers` or `offload_store`, not both"
            )
        if tiers is not None and tiers.block_size != block_size:
            raise TierError(
                f"tiered store uses {tiers.block_size}-token blocks but the "
                f"manager uses {block_size}-token blocks"
            )
        self._block_size = block_size
        num_blocks = capacity_tokens // block_size
        self._allocator = BlockAllocator(num_blocks, block_size)
        self._cache = RadixPrefixCache(self._allocator)
        self._offload = offload_store
        self._tiers = tiers
        if tiers is not None:
            tiers.bind_gpu_cache(self._cache)
        self._enable_prefix_caching = enable_prefix_caching
        self._requests = 0
        self._requests_with_hit = 0
        self._tokens_total = 0
        self._tokens_hit = 0
        self._tokens_hit_host = 0
        self._tokens_hit_cluster = 0
        self._active_leases = 0
        #: (host multiplier, cluster multiplier, cluster reachable) at the
        #: previous :meth:`take_changes` call.
        self._tier_state: tuple[float, float, bool] | None = None

    # ---------------------------------------------------------------- state

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def capacity_tokens(self) -> int:
        """KV budget in tokens."""
        return self._allocator.capacity_tokens

    @property
    def num_cached_tokens(self) -> int:
        """Tokens currently resident in the prefix cache."""
        return self._cache.num_cached_tokens

    def resident_hashes(self) -> list[int]:
        """Content hashes resident in GPU (L1) memory, parents before children.

        The public residency probe the system-wide invariant checks read
        (:mod:`repro.simulation.invariants`): together with
        ``tiers.host.resident_hashes()`` and the cluster store's
        ``owner_of``, it pins single residency per owner across the tiers.
        """
        return self._cache.resident_hashes()

    def tree_snapshot(self) -> TreeSnapshot:
        """The radix tree's structure, for the KV structural invariant check
        (:func:`repro.simulation.invariants.check_kv_structure`)."""
        return self._cache.snapshot()

    @property
    def cache_version(self) -> int:
        """Monotonic version of the prefix cache contents (bumped on every
        insertion or eviction)."""
        return self._cache.version

    def take_changes(self, watched: Container[int]) -> set[int] | None:
        """Watched content hashes whose residency changed in any tier since
        the previous call.

        The delta feed of the scheduler's frontier-indexed recalibration: the
        union of the GPU radix tree's record
        (:meth:`~repro.kvcache.prefix_tree.RadixPrefixCache.take_changes`)
        and, on a tiered manager, the host store's and the shared cluster
        store's records of the same ``watched`` container.  None means
        "re-derive everything": a feed had no record for ``watched`` yet, or
        the host or cluster transfer-cost multiplier or the cluster's
        reachability differs from the previous call (a brownout or an
        outage changes every tier lookup without changing any tier's
        contents).
        """
        changed = self._cache.take_changes(watched)
        tiers = self._tiers
        if tiers is None:
            return changed
        host, cluster = tiers.host, tiers.cluster
        host_changed = cluster_changed = ()
        host_cost = cluster_cost = 1.0
        available = True
        if host is not None:
            host_changed = host.take_changes(watched)
            host_cost = host.cost_multiplier
        if cluster is not None:
            cluster_changed = cluster.take_changes(watched)
            cluster_cost, available = cluster.cost_multiplier, cluster.available
        state = (host_cost, cluster_cost, available)
        if state != self._tier_state:
            self._tier_state = state
            return None
        if changed is None or host_changed is None or cluster_changed is None:
            return None
        return changed.union(host_changed, cluster_changed)

    @property
    def tiers(self) -> TieredPrefixStore | None:
        """The tiered hierarchy this manager runs, or None."""
        return self._tiers

    @property
    def has_tiers(self) -> bool:
        return self._tiers is not None

    @property
    def num_active_leases(self) -> int:
        """Execution leases currently outstanding (begin minus finish)."""
        return self._active_leases

    def stats(self) -> CacheStats:
        """Return aggregate hit-rate statistics."""
        tier_stats = None
        if self._tiers is not None:
            tier_stats = dict(self._tiers.stats.__dict__)
            tier_stats["tokens_hit_host"] = self._tokens_hit_host
            tier_stats["tokens_hit_cluster"] = self._tokens_hit_cluster
        offload = self._offload
        if offload is None and self._tiers is not None:
            offload = self._tiers.host
        return CacheStats(
            requests=self._requests,
            requests_with_hit=self._requests_with_hit,
            tokens_total=self._tokens_total,
            tokens_hit=self._tokens_hit,
            block_stats=dict(self._cache.stats),
            offload_stats=(
                offload.stats.__dict__ if offload is not None else None
            ),
            tier_stats=tier_stats,
        )

    # --------------------------------------------------------------- lookup

    def lookup(self, block_hashes: Sequence[int]) -> int:
        """Number of leading tokens of the request already cached on the GPU.

        Does not touch LRU state — this is the read-only query the scheduler
        issues for every waiting request during continuous JCT calibration.
        """
        if not self._enable_prefix_caching:
            return 0
        return self._cache.match_length(block_hashes) * self._block_size

    def lookup_from(self, block_hashes: Sequence[int], hint_blocks: int) -> int:
        """:meth:`lookup`, resumed from a previous match of ``hint_blocks`` blocks.

        The result is exactly ``lookup(block_hashes)``; the walk backtracks
        and extends from the hint instead of starting at the root (see
        :meth:`~repro.kvcache.prefix_tree.RadixPrefixCache.match_length`), so
        it costs O(blocks changed on this chain) instead of O(match length).
        """
        if not self._enable_prefix_caching:
            return 0
        return self._cache.match_length(block_hashes, hint_blocks) * self._block_size

    def lookup_offloaded(self, block_hashes: Sequence[int]) -> int:
        """Tokens of the request available in the CPU offload store."""
        if self._offload is None or not self._enable_prefix_caching:
            return 0
        return self._offload.match_length(block_hashes) * self._block_size

    def lookup_with_offload(self, block_hashes: Sequence[int]) -> tuple[int, int, float]:
        """GPU-cached prefix plus its CPU-offloaded continuation.

        Returns ``(gpu_tokens, offloaded_tokens, load_seconds)`` where
        ``offloaded_tokens`` is the length of the prefix continuation that can
        be streamed back from host memory and ``load_seconds`` is the modelled
        transfer time for doing so.  The offload store keys blocks by the same
        chained content hashes as the GPU cache, so the continuation lookup is
        simply the suffix of the hash list starting where the GPU prefix ends.
        """
        gpu_tokens = self.lookup(block_hashes)
        if self._offload is None or not self._enable_prefix_caching:
            return gpu_tokens, 0, 0.0
        gpu_blocks = gpu_tokens // self._block_size
        continuation = tuple(block_hashes)[gpu_blocks:]
        offloaded_blocks, load_seconds = self._offload.load(continuation)
        return gpu_tokens, offloaded_blocks * self._block_size, load_seconds

    # ----------------------------------------------------------------- tiers

    def lookup_with_tiers(self, block_hashes: Sequence[int]) -> TierLookup:
        """Resolve a request's prefix against every tier, read-only.

        This is the tier-aware counterpart of :meth:`lookup`: the scheduler's
        continuous JCT calibration uses it to credit waiting requests for
        prefixes resident in the host or cluster tiers (discounted by the
        modelled transfer time), without perturbing LRU state or hit counts.
        """
        if self._tiers is None or not self._enable_prefix_caching:
            gpu_tokens = self.lookup(block_hashes)
            return TierLookup(gpu_tokens=gpu_tokens, host_tokens=0,
                              cluster_tokens=0, load_seconds=0.0,
                              penalty_tokens=0.0)
        gpu_blocks = self._cache.match_length(block_hashes)
        return self._tiers.lookup(block_hashes, gpu_blocks)

    def fetch_tiers(self, block_hashes: Sequence[int], *, now: float = 0.0) -> tuple[int, float]:
        """Stream the tier-resident continuation up for execution.

        Returns ``(tier_tokens, load_seconds)``: tokens that need no
        recompute because they came from the host/cluster tiers, and the
        transfer time to charge the request's first stage.  Applies the
        promotion policy as a side effect (see
        :meth:`~repro.kvcache.tiers.store.TieredPrefixStore.fetch`).
        """
        if self._tiers is None or not self._enable_prefix_caching:
            return 0, 0.0
        gpu_blocks = self._cache.match_length(block_hashes)
        lookup = self._tiers.fetch(block_hashes, gpu_blocks, now=now)
        self._tokens_hit_host += lookup.host_tokens
        self._tokens_hit_cluster += lookup.cluster_tokens
        return lookup.tier_tokens, lookup.load_seconds

    def prefetch_tiers(self, block_hashes: Sequence[int], *, now: float = 0.0) -> int:
        """Warm L1 with the request's tier-resident continuation (router hint).

        Returns the number of tokens promoted.  No cost is charged to any
        request — the transfer overlaps with queueing and is accounted in the
        tier stats.
        """
        if self._tiers is None or not self._enable_prefix_caching:
            return 0
        gpu_blocks = self._cache.match_length(block_hashes)
        return self._tiers.prefetch(block_hashes, gpu_blocks, now=now)

    def set_transfer_cost_multiplier(self, multiplier: float) -> None:
        """Scale every modelled host-link transfer time by ``multiplier``.

        The fault subsystem's interconnect brownout: applied to the flat
        offload store and the tiered hierarchy's host store (the fleet sets
        the shared cluster store's multiplier itself).  1.0 restores normal
        costs bit-exactly.
        """
        if self._offload is not None:
            self._offload.cost_multiplier = multiplier
        if self._tiers is not None and self._tiers.host is not None:
            self._tiers.host.cost_multiplier = multiplier

    def drain(self) -> int:
        """Flush the cached hierarchy downward (replica retirement).

        With tiering, the radix tree's resident prefixes and the host tier's
        contents publish into the fleet-shared cluster store, so a scale-down
        hands this replica's hot prefixes to the surviving fleet instead of
        discarding them.  Without tiering but with a flat offload store, the
        radix tree flushes into that store: the spill every commit applies to
        its overflow, applied once more at retirement.  Returns the number of
        blocks flushed.

        Raises:
            TierError: if any execution lease is still outstanding — draining
                a replica with in-flight work would orphan its leases.
        """
        if self._active_leases > 0:
            raise TierError(
                f"cannot drain: {self._active_leases} execution lease(s) still active"
            )
        if self._tiers is not None:
            return self._tiers.drain(self._cache.resident_hashes())
        if self._offload is not None:
            hashes = self._cache.resident_hashes()
            new_hashes = [h for h in hashes if h not in self._offload]
            self._offload.store(hashes)
            return sum(1 for h in new_hashes if h in self._offload)
        return 0

    # ------------------------------------------------------------ execution

    def begin_execution(self, block_hashes: Sequence[int], num_tokens: int, *,
                        reserve_full_kv: bool, now: float = 0.0) -> ExecutionLease:
        """Acquire the KV resources a request needs to start its forward pass.

        Args:
            block_hashes: The request's chained block hashes.
            num_tokens: The request's total token count.
            reserve_full_kv: True for baseline engines, which must hold the KV
                cache of every uncached token in GPU blocks for the whole pass.
                PrefillOnly passes False because hybrid prefilling keeps only
                one layer's KV live and discards/offloads the rest.
            now: Logical time for LRU bookkeeping.

        Raises:
            CapacityError: if ``reserve_full_kv`` is set and the uncached part
                of the request does not fit even after evicting every evictable
                cached block.
        """
        hashes = tuple(block_hashes)
        match = (
            self._cache.match(hashes, now=now)
            if self._enable_prefix_caching
            else PrefixMatch(0, 0, None)
        )
        lease = ExecutionLease(
            block_hashes=hashes,
            num_tokens=num_tokens,
            frontier=self._cache.pin_prefix(hashes, match.num_blocks),
            cached_tokens=match.num_tokens,
        )
        if not reserve_full_kv:
            self._record_request(num_tokens, match.num_tokens)
            self._active_leases += 1
            return lease

        uncached_tokens = max(num_tokens - match.num_tokens, 0)
        needed = count_blocks(uncached_tokens, self._block_size)
        self._cache.make_room(needed)
        try:
            lease.scratch_blocks = self._allocator.allocate_many(needed, now=now)
        except AllocationError as exc:
            self._cache.unpin(lease.frontier)
            raise CapacityError(
                f"request of {num_tokens} tokens needs {needed} KV blocks but the "
                f"cache budget of {self.capacity_tokens} tokens cannot supply them",
                required=needed,
                available=self._allocator.num_free_blocks,
            ) from exc
        self._record_request(num_tokens, match.num_tokens)
        self._active_leases += 1
        return lease

    def _record_request(self, num_tokens: int, cached_tokens: int) -> None:
        self._requests += 1
        self._tokens_total += num_tokens
        self._tokens_hit += cached_tokens
        if cached_tokens > 0:
            self._requests_with_hit += 1

    def finish_execution(self, lease: ExecutionLease, *, commit: bool = True,
                         now: float = 0.0) -> int:
        """Release a lease and, unless ``commit`` is False, commit its KV cache.

        A commit inserts the prefix that fits into the GPU prefix cache.  The
        overflow demotes down the tiers, spills into the flat offload store
        when the manager has one, and is discarded otherwise.  ``commit=False``
        aborts: the request's KV is dropped (cancellation and crashes).

        Returns:
            The number of the request's tokens resident in the GPU prefix cache
            after the commit.
        """
        self._cache.unpin(lease.frontier)
        if lease.scratch_blocks:
            self._allocator.free_many(lease.scratch_blocks)
            lease.scratch_blocks = []
        self._active_leases = max(self._active_leases - 1, 0)

        if not self._enable_prefix_caching or not commit:
            return 0

        if self._tiers is not None:
            # Tiered commit: promotion policy decides whether tier-resident
            # blocks re-enter L1, and the suffix that does not fit demotes
            # down the hierarchy instead of being discarded.
            resident_blocks = self._tiers.commit(lease.block_hashes, now=now)
            return resident_blocks * self._block_size

        resident_blocks = self._cache.insert(lease.block_hashes, now=now)
        if self._offload is not None:
            overflow = lease.block_hashes[resident_blocks:]
            if overflow:
                self._offload.store(overflow)
        return resident_blocks * self._block_size

    # ----------------------------------------------------------------- misc

    def clear(self) -> None:
        """Drop all cached state (between experiments)."""
        self._cache.clear()
        if self._offload is not None:
            self._offload.clear()
        if self._tiers is not None:
            self._tiers.clear()
