"""The tiered prefix store: GPU radix tree over host memory over the cluster.

:class:`TieredPrefixStore` is the per-replica object that layers the three
tiers into one hierarchy:

* **L1** — the replica's GPU radix tree (:class:`~repro.kvcache.prefix_tree.
  RadixPrefixCache`), bound at manager-attach time.  Hits are free.
* **L2** — the replica's host :class:`~repro.kvcache.offload.CPUOffloadStore`.
  Hits are charged through the host link (PCIe by default).
* **L3** — the fleet-shared :class:`~repro.kvcache.tiers.cluster_store.
  ClusterPrefixStore`.  Hits are charged through the cluster link (NVLink /
  network), and blocks published by *other* replicas match too — the chained
  content hash is replica-independent.

Block movement follows two policies:

* **promotion** — a lower-tier hit installs the block in L1 once the block
  has hit ``promote_at`` times in the lower tiers (``KVTiersSpec.promote_at``:
  0 for ``always``, N for ``on-nth-hit``, infinite for ``never``).  Only the
  leading contiguous run of promotable continuation blocks is installed,
  preserving the radix tree's prefix-closure invariant.
* **demote-instead-of-evict** — L1 evictions cascade into L2 and L2
  evictions into L3 (instead of dropping the bytes), so capacity pressure
  pushes cold prefixes *down* the hierarchy rather than out of it.  Each
  eviction pass moves in one call per tier: the radix tree hands over a
  pass's victims at once, they go to the host in one store, and the host's
  own victims of that store go to the cluster in one publish.  A fetch
  stages its tail's cluster hits into the host in one pass that keeps the
  block-at-a-time order.  The accounting stays per block (see the
  transfer-cost model below).

The exclusivity invariant the property tests pin: a content hash is resident
in at most one tier per owner — promotion removes the block from its source
tier, demotion only fires on eviction (the block just left the tier above),
and commit overflow reclaims any self-owned L3 duplicate.  Peer-owned L3
entries may coexist with a local copy; they belong to the publisher.

Transfer-cost model: a batch of ``n`` blocks fetched from one tier costs
``n * block_bytes / link.bandwidth + link.latency`` (one latency per batch,
like the offload store).  Fetch costs are charged to the request's first
pipeline stage; demotion and prefetch costs are accounted in
:class:`TierStats` but not charged to any request — they model asynchronous
background transfers that overlap with compute / queueing.  Eviction-driven
demotion is charged per block: every block that moves adds its own one-block
transfer time, latency included, in eviction order, while commit overflow
and drains pay one latency per batch.  ``demote_seconds`` leaves out the
cluster seconds of the host evictions an L1 demotion causes, a lost update
of the block-at-a-time cascade that the run goldens still pin.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

from repro.hardware.interconnect import get_interconnect
from repro.kvcache.offload import CPUOffloadStore
from repro.kvcache.tiers.cluster_store import ClusterPrefixStore
from repro.obs.recorder import NULL_RECORDER
from repro.spec.models import KVTiersSpec


class TierLookup(NamedTuple):
    """Result of resolving a request's block hashes against every tier (a
    named tuple: built on every lookup, fetch and scheduler calibration).

    Attributes:
        gpu_tokens: Leading tokens resident in the L1 radix tree.
        host_tokens: Continuation tokens resident in the host (L2) store.
        cluster_tokens: Continuation tokens resident in the cluster (L3) store.
        load_seconds: Modelled transfer time to stream the L2/L3 continuation
            to the GPU.
        penalty_tokens: ``load_seconds`` expressed in compute-token
            equivalents, for JCT scoring in token units.
    """

    gpu_tokens: int
    host_tokens: int
    cluster_tokens: int
    load_seconds: float
    penalty_tokens: float

    @property
    def total_tokens(self) -> int:
        """Tokens resident anywhere in the hierarchy."""
        return self.gpu_tokens + self.host_tokens + self.cluster_tokens

    @property
    def tier_tokens(self) -> int:
        """Tokens resident below L1 (what a fetch would stream up)."""
        return self.host_tokens + self.cluster_tokens


@dataclass(frozen=True)
class TierStats:
    """Cumulative per-replica counters of the tiered store."""

    host_hit_blocks: int
    cluster_hit_blocks: int
    promoted_blocks: int
    demoted_blocks: int
    dropped_blocks: int
    prefetched_blocks: int
    bytes_up: int
    bytes_down: int
    load_seconds: float
    prefetch_seconds: float
    demote_seconds: float


class TieredPrefixStore:
    """Per-replica view of the GPU -> host -> cluster prefix-cache hierarchy.

    Demotion starts at the radix tree's eviction hook, called once per
    eviction pass.  The host store has no hook: each store call returns its
    LRU victims, which :meth:`_on_host_evict` publishes to the cluster in one
    publish.  Each demoted block is one ``demote`` span event of one block,
    and an eviction pass, a batch store or a fetch's staging pass records
    its demotions with one
    :meth:`~repro.obs.recorder.TraceRecorder.emit_many` call.

    The hierarchy keeps no version of its own.  Each tier records the
    membership changes of the hashes its watcher asks about — the radix
    tree's, the host store's and the cluster store's ``take_changes`` — and
    the owning manager unions the three for the SRJF scheduler's frontier
    index (:meth:`~repro.kvcache.manager.KVCacheManager.take_changes`).

    Args:
        replica: Name of the owning replica (L3 ownership accounting).
        block_size: Tokens per KV block (must match the L1 cache).
        block_bytes: Bytes per KV block (for transfer-cost modelling).
        host: Host (L2) store, or None to run without one.  A store that
            holds no whole block is no host tier: it is dropped, so L1
            victims publish straight to the cluster.
        cluster: Fleet-shared (L3) store, or None to run without one.
        promote_at: Lower-tier hits at which a block is promoted into L1
            (``math.inf`` never promotes).
        demote_on_evict: Cascade evictions down the hierarchy instead of
            dropping blocks.
        compute_tokens_per_second: The replica's uncached prefill rate, used
            to express transfer seconds in token units for JCT scoring
            (0 disables the conversion).
    """

    #: Span recorder and replica key, rebound by ``Fleet._build_replica``
    #: when observability is enabled.  Eviction cascades carry no timestamp,
    #: so demotion events they trigger borrow ``_obs_now`` — the simulated
    #: time of the last timestamped entry point (fetch/commit/prefetch/...).
    obs = NULL_RECORDER
    obs_key = 0

    def __init__(self, *, replica: str, block_size: int, block_bytes: int,
                 host: CPUOffloadStore | None = None,
                 cluster: ClusterPrefixStore | None = None,
                 promote_at: float = 2,
                 demote_on_evict: bool = True,
                 compute_tokens_per_second: float = 0.0) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self.replica = replica
        self._block_size = block_size
        self._block_bytes = block_bytes
        self._host = host if host is not None and host.capacity_blocks else None
        self._cluster = cluster
        self._promote_at = promote_at
        self._demote_on_evict = demote_on_evict
        self._tokens_per_second = compute_tokens_per_second
        #: A weak proxy of the L1 radix tree, bound by the KVCacheManager.
        self._gpu_cache = None
        self._hit_counts: dict[int, int] = {}
        self._obs_now = 0.0
        # counters
        self._host_hits = 0
        self._cluster_hits = 0
        self._promoted = 0
        self._demoted = 0
        self._dropped = 0
        self._prefetched = 0
        self._bytes_up = 0
        self._bytes_down = 0
        self._load_seconds = 0.0
        self._prefetch_seconds = 0.0
        self._demote_seconds = 0.0

    # ---------------------------------------------------------------- state

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def host(self) -> CPUOffloadStore | None:
        return self._host

    @property
    def cluster(self) -> ClusterPrefixStore | None:
        return self._cluster

    @property
    def stats(self) -> TierStats:
        return TierStats(
            host_hit_blocks=self._host_hits,
            cluster_hit_blocks=self._cluster_hits,
            promoted_blocks=self._promoted,
            demoted_blocks=self._demoted,
            dropped_blocks=self._dropped,
            prefetched_blocks=self._prefetched,
            bytes_up=self._bytes_up,
            bytes_down=self._bytes_down,
            load_seconds=self._load_seconds,
            prefetch_seconds=self._prefetch_seconds,
            demote_seconds=self._demote_seconds,
        )

    def bind_gpu_cache(self, cache) -> None:
        """Attach the L1 radix tree (called by the owning KVCacheManager).

        The tree holds this store through its eviction hook, and the store
        holds the tree weakly: the manager owns the tree, so the two form no
        reference cycle and a dropped replica is freed by reference counting.
        """
        self._gpu_cache = weakref.proxy(cache)
        cache.on_evict = self._on_l1_evict

    # --------------------------------------------------------------- lookup

    def _walk_continuation(self, block_hashes, start_blocks: int) -> tuple[int, int]:
        """(host blocks, cluster blocks) of the continuation past ``start_blocks``.

        Walks hash by hash so interleaved residency (some blocks in L2, the
        next in L3) still resolves; stops at the first block in neither tier.
        """
        in_host, in_cluster = self._residency()
        host_blocks = 0
        cluster_blocks = 0
        for content_hash in block_hashes[start_blocks:]:
            if content_hash in in_host:
                host_blocks += 1
            elif content_hash in in_cluster:
                cluster_blocks += 1
            else:
                break
        return host_blocks, cluster_blocks

    def _residency(self) -> tuple:
        """The host's and the cluster's resident hashes as live containers
        (empty for a missing or unavailable tier), for membership tests on
        the stores' dicts instead of a call per block."""
        return (
            self._host.resident if self._host is not None else (),
            self._cluster.resident if self._cluster is not None else (),
        )

    def _batch_seconds(self, host_blocks: int, cluster_blocks: int) -> float:
        seconds = 0.0
        if host_blocks and self._host is not None:
            seconds += self._host.transfer_time(host_blocks)
        if cluster_blocks and self._cluster is not None:
            seconds += self._cluster.transfer_time(cluster_blocks)
        return seconds

    def penalty_tokens(self, load_seconds: float) -> float:
        """Express transfer seconds in compute-token equivalents."""
        return load_seconds * self._tokens_per_second

    def lookup(self, block_hashes, gpu_blocks: int) -> TierLookup:
        """Read-only tier resolution (no LRU, hit-count, or residency change).

        Args:
            block_hashes: The request's chained block hashes.
            gpu_blocks: Length of the L1 match, in blocks (the caller already
                knows it from the radix tree).
        """
        host_blocks, cluster_blocks = self._walk_continuation(block_hashes, gpu_blocks)
        load_seconds = self._batch_seconds(host_blocks, cluster_blocks)
        return TierLookup(
            gpu_blocks * self._block_size,
            host_blocks * self._block_size,
            cluster_blocks * self._block_size,
            load_seconds,
            self.penalty_tokens(load_seconds),
        )

    # ---------------------------------------------------------------- fetch

    def fetch(self, block_hashes, gpu_blocks: int, *, now: float = 0.0) -> TierLookup:
        """Stream the tier-resident continuation to the GPU for execution.

        Counts per-block hits, promotes the leading contiguous run of the
        continuation whose blocks reached ``promote_at`` hits (promoted
        blocks are inserted into L1 and removed from their source tier),
        stages unpromoted L3 hits into L2 when one exists
        (:meth:`_stage_tail`), and returns the
        resolved :class:`TierLookup` — whose ``tier_tokens`` need no
        recompute and whose ``load_seconds`` is the transfer time to charge
        the request.
        """
        self._obs_now = now
        host_blocks, cluster_blocks = self._walk_continuation(block_hashes, gpu_blocks)
        total = host_blocks + cluster_blocks
        if total == 0:
            return TierLookup(gpu_blocks * self._block_size, 0, 0, 0.0, 0.0)
        continuation = list(block_hashes[gpu_blocks:gpu_blocks + total])

        self._host_hits += host_blocks
        self._cluster_hits += cluster_blocks
        self._bytes_up += total * self._block_bytes
        load_seconds = self._batch_seconds(host_blocks, cluster_blocks)
        self._load_seconds += load_seconds
        self.obs.emit(
            now, self.obs_key, "tier_hit",
            host_tokens=host_blocks * self._block_size,
            cluster_tokens=cluster_blocks * self._block_size,
            load_s=load_seconds,
        )

        # Count every streamed block's hit and find the leading contiguous
        # promotable run.
        hit_counts = self._hit_counts
        promote_at = self._promote_at
        promote_run = 0
        run_unbroken = True
        for content_hash in continuation:
            hits = hit_counts.get(content_hash, 0) + 1
            hit_counts[content_hash] = hits
            if run_unbroken and hits >= promote_at:
                promote_run += 1
            else:
                run_unbroken = False
        if cluster_blocks:
            # Record the cluster reads (fleet-wide hit accounting) in one
            # call: the continuation's blocks outside the host.
            in_host = self._residency()[0]
            self._cluster.fetch_block(
                self.replica, *(h for h in continuation if h not in in_host)
            )
            self.obs.emit(now, self.obs_key, "peer_fetch", blocks=cluster_blocks)
        landed = self._promote_into_l1(block_hashes, gpu_blocks, promote_run, now)
        self._promoted += landed
        if landed:
            self.obs.emit(now, self.obs_key, "promote", blocks=landed)
        if self._host is not None and landed < total:
            self._stage_tail(continuation[landed:])
        return TierLookup(
            gpu_blocks * self._block_size,
            host_blocks * self._block_size,
            cluster_blocks * self._block_size,
            load_seconds,
            self.penalty_tokens(load_seconds),
        )

    def _stage_tail(self, tail: list[int]) -> None:
        """Touch up a fetch's unpromoted tail in one pass, block by block.

        Host hits get an LRU refresh, and cluster hits are staged into the
        host tier so the next hit pays the host link instead of the cluster
        link.  Each step is the block-at-a-time cascade's: a staged block is
        stored in the host, the host's LRU victim is published to the
        cluster, and only then is the staged block's own cluster copy
        discarded.  A victim may be a later tail block, which reaches the
        cluster before its turn, and discarding first would spare a cluster
        entry the publish evicts.  The pass settles its demotions once.
        """
        host, cluster = self._host, self._cluster
        in_host, in_cluster = self._residency()
        replica = self.replica
        published = 0
        for content_hash in tail:
            if content_hash in in_host:
                host.refresh(content_hash)
            elif content_hash in in_cluster:
                victims = host.offload((content_hash,))[1]
                if victims:
                    published += self._on_host_evict(victims)
                cluster.discard_owned(replica, content_hash)
        self._demote_in_cluster(published)

    def _promote_into_l1(self, block_hashes, gpu_blocks: int, promote_run: int,
                         now: float) -> int:
        """Install the leading ``promote_run`` continuation blocks in L1.

        Returns how many actually landed (GPU pressure may stop the insert
        early); landed blocks are removed from their source tier afterwards,
        so a block is never resident twice.
        """
        if promote_run == 0 or self._gpu_cache is None:
            return 0
        prefix = block_hashes[:gpu_blocks + promote_run]
        resident = self._gpu_cache.insert(prefix, now=now)
        landed = max(resident - gpu_blocks, 0)
        self.reclaim(prefix[gpu_blocks:gpu_blocks + landed])
        return landed

    def reclaim(self, block_hashes) -> int:
        """Remove lower-tier copies of blocks that just landed in L1.

        Called after any insert into the radix tree (promotion, prefetch,
        commit) with the hashes that actually became resident.  Pure
        residency maintenance — the caller decides whether the movement
        counts as a promotion or a prefetch.  Returns how many copies were
        reclaimed.
        """
        reclaimed = set()
        if self._host is not None:
            reclaimed.update(self._host.discard(*block_hashes))
        if self._cluster is not None:
            reclaimed.update(self._cluster.discard_owned(self.replica, *block_hashes))
        for content_hash in reclaimed:
            self._hit_counts.pop(content_hash, None)
        return len(reclaimed)

    # --------------------------------------------------------------- commit

    def commit(self, block_hashes, *, now: float = 0.0) -> int:
        """Commit a finished request's chain through the hierarchy.

        The tier-aware counterpart of the manager's plain radix-tree insert:

        * blocks already resident in a lower tier re-enter L1 only if their
          current hit count has reached ``promote_at`` — a block that is
          deliberately parked in the host tier stays there instead of
          churning the GPU cache on every pass;
        * the first unpromotable tier-resident block ends the L1 insert (the
          radix tree cannot hold a block without its ancestors);
        * everything past the L1-resident run demotes into the tiers via
          :meth:`accept_overflow`;
        * L1-resident blocks' lower-tier copies are reclaimed, preserving
          single-residency.

        With no host and no cluster tier this degenerates to exactly the
        seed behaviour (insert everything, evicting LRU leaves as needed).

        Returns the number of the request's blocks resident in L1 after the
        commit.
        """
        if self._gpu_cache is None:
            return 0
        self._obs_now = now
        hashes = tuple(block_hashes)
        gpu_match = self._gpu_cache.match_length(hashes)
        in_host, in_cluster = self._residency()
        hit_counts, promote_at = self._hit_counts, self._promote_at
        stop = gpu_match
        for content_hash in hashes[gpu_match:]:
            if ((content_hash in in_host or content_hash in in_cluster)
                    and hit_counts.get(content_hash, 0) < promote_at):
                break
            stop += 1
        resident = self._gpu_cache.insert(hashes[:stop], now=now)
        reclaimed = self.reclaim(hashes[gpu_match:resident])
        self._promoted += reclaimed
        if reclaimed:
            self.obs.emit(now, self.obs_key, "promote", blocks=reclaimed)
        overflow = hashes[resident:]
        if overflow:
            self.accept_overflow(overflow, now=now)
        return resident

    # ------------------------------------------------------------- prefetch

    def prefetch(self, block_hashes, gpu_blocks: int, *, now: float = 0.0) -> int:
        """Warm L1 with the tier-resident continuation ahead of dispatch.

        Promotion is unconditional — the routing decision *is* the hint that
        these blocks are about to be needed.  The transfer is accounted in
        :class:`TierStats` (``prefetch_seconds``) but not charged to any
        request: it overlaps with the request's queueing time.

        Returns the number of tokens moved into L1.
        """
        self._obs_now = now
        host_blocks, cluster_blocks = self._walk_continuation(block_hashes, gpu_blocks)
        total = host_blocks + cluster_blocks
        if total == 0:
            return 0
        # Snapshot which tier each continuation block sits in before the
        # insert moves anything, so the transfer accounting can be limited to
        # the blocks that actually land in L1.
        continuation = list(block_hashes[gpu_blocks:gpu_blocks + total])
        resident = self._residency()[0]
        in_host = [h in resident for h in continuation]
        landed = self._promote_into_l1(block_hashes, gpu_blocks, total, now)
        if landed == 0:
            return 0
        landed_host = sum(1 for flag in in_host[:landed] if flag)
        self._prefetched += landed
        self._bytes_up += landed * self._block_bytes
        self._prefetch_seconds += self._batch_seconds(landed_host, landed - landed_host)
        self.obs.emit(now, self.obs_key, "prefetch", blocks=landed)
        return landed * self._block_size

    def warm_restore(self, block_hashes, *, now: float = 0.0) -> int:
        """Stage cluster-resident blocks into the host tier (replica rebuild).

        The fault subsystem's recovery path: a replica rebuilt after a crash
        starts with an empty L1 and L2, but prefixes that were already
        resident in the fleet-shared cluster store survived the crash — this
        copies up to ``len(block_hashes)`` of them into the fresh host tier
        so the first post-recovery requests pay the host link instead of the
        cluster link (or a full recompute).  The transfer is a background
        copy: accounted as prefetch time, charged to no request, and the L3
        entries stay put (they belong to their publisher — typically the
        dead replica — and other replicas keep matching them).

        Returns the number of blocks staged.
        """
        if self._host is None or self._cluster is None:
            return 0
        self._obs_now = now
        in_host, in_cluster = self._residency()
        fresh = [
            content_hash for content_hash in block_hashes
            if content_hash in in_cluster and content_hash not in in_host
        ]
        if not fresh:
            return 0
        seconds = self._store_in_host(fresh)
        restored = sum(1 for content_hash in fresh if content_hash in in_host)
        self._prefetched += restored
        self._prefetch_seconds += seconds
        self._bytes_up += restored * self._block_bytes
        return restored

    # ------------------------------------------------------------- demotion

    def accept_overflow(self, block_hashes, *, now: float = 0.0) -> int:
        """Take the commit-time overflow (blocks that did not fit in L1).

        The overflow demotes into L2 (or straight into L3 when no host tier
        exists); any self-owned L3 duplicate is reclaimed so the block stays
        single-resident.  Returns how many blocks the tiers absorbed.
        """
        hashes = list(block_hashes)
        if not hashes:
            return 0
        self._obs_now = now
        if self._host is not None:
            # Only blocks that were not already host-resident are transfers;
            # re-offering a parked block refreshes its LRU slot for free.
            in_host = self._host.resident
            new_hashes = [h for h in hashes if h not in in_host]
            # Two statements: ``+=`` would read the sum before the store adds
            # the cluster seconds of its victims, and overwrite them.
            seconds = self._store_in_host(hashes)
            self._demote_seconds += seconds
            absorbed = sum(1 for h in new_hashes if h in in_host)
            if self._cluster is not None:
                self._cluster.discard_owned(
                    self.replica, *(h for h in hashes if h in in_host)
                )
            self._demoted += absorbed
            self._bytes_down += absorbed * self._block_bytes
            if absorbed:
                self.obs.emit(now, self.obs_key, "demote", blocks=absorbed)
            return absorbed
        if self._cluster is not None:
            stored = self._cluster.publish(self.replica, hashes)
            self._demote_seconds += self._cluster.transfer_time(stored)
            self._demoted += stored
            self._bytes_down += stored * self._block_bytes
            if stored:
                self.obs.emit(now, self.obs_key, "demote", blocks=stored)
            return stored
        self._dropped += len(hashes)
        return 0

    def _on_l1_evict(self, hashes: list[int]) -> None:
        """L1 eviction hook: demote one eviction pass's victims instead of
        dropping them, with one host store (or, without a host, one cluster
        publish) for the whole pass."""
        if not self._demote_on_evict:
            self._dropped += len(hashes)
            return
        host = self._host
        if host is not None:
            stored, victims = host.offload(hashes)
            published = self._on_host_evict(victims) if victims else 0
            # Every L1 victim is now stored or refreshed: all count as
            # demoted, and so do the host victims the cluster stored.  Only
            # the host transfers are charged: a known lost update, kept bit
            # for bit because the run goldens pin it (see the FOUND line on
            # demote_seconds in CHANGES.md), drops the cluster seconds of the
            # host evictions this store causes, as the block-at-a-time
            # cascade dropped them by reading the sum before the store and
            # writing it back after.
            self._demote(len(hashes) + published, stored, host.transfer_time(1))
        elif self._cluster is not None:
            self._demote_in_cluster(self._on_host_evict(hashes))
        else:
            self._dropped += len(hashes)

    def _store_in_host(self, hashes) -> float:
        """Store blocks in the host tier in one call, demote its LRU victims
        into the cluster, and return the host transfer seconds."""
        stored, victims = self._host.offload(hashes)
        if victims:
            self._demote_in_cluster(self._on_host_evict(victims))
        return self._host.transfer_time(stored)

    def _on_host_evict(self, hashes: list[int]) -> int:
        """Publish evicted blocks to the cluster in one publish; return how
        many it stored, which the caller accounts as demoted.

        A victim is dropped when it ends up neither stored nor resident: every
        victim without a cluster or with ``demote_on_evict`` off, and a victim
        a refused publish leaves outside the store.
        """
        cluster = self._cluster
        if not self._demote_on_evict or cluster is None:
            self._dropped += len(hashes)
            return 0
        stored = cluster.publish(self.replica, hashes)
        if stored < len(hashes) and not cluster.writable:
            # A refused publish changes nothing, so residency after the call
            # is residency at each victim's turn.  A writable store stores or
            # refreshes every victim: none is dropped.
            self._dropped += sum(1 for h in hashes if h not in cluster)
        return stored

    def _demote_in_cluster(self, blocks: int) -> None:
        """Account ``blocks`` blocks the cluster stored as demoted, each
        charged its one-block cluster transfer."""
        if blocks:
            self._demote(blocks, blocks, self._cluster.transfer_time(1))

    def _demote(self, blocks: int, transfers: int, block_seconds: float) -> None:
        """Account ``blocks`` demoted blocks, ``transfers`` of which moved.

        Demotion costs one block's transfer time per moved block, link
        latency included, added block by block in eviction order: the same
        sum a block-at-a-time cascade charges.  Each block is one ``demote``
        event of one block.
        """
        self._demoted += blocks
        self._bytes_down += blocks * self._block_bytes
        seconds = self._demote_seconds
        for _ in range(transfers):
            seconds += block_seconds
        self._demote_seconds = seconds
        if blocks:
            self.obs.emit_many(self._obs_now, self.obs_key, "demote", blocks, blocks=1)

    # ---------------------------------------------------------------- drain

    def drain(self, l1_hashes) -> int:
        """Flush a retiring replica's cached prefixes into the cluster store.

        Publishes the L1 radix tree's resident hashes (already in
        parent-before-child order) and the host tier's contents to L3, so a
        scale-down hands the replica's hot prefixes to the surviving fleet
        instead of discarding them.  Returns the number of blocks published.
        """
        cluster = self._cluster
        if cluster is None:
            return 0
        published = cluster.publish(self.replica, list(l1_hashes))
        self._demote_seconds += cluster.transfer_time(published)
        if self._host is not None:
            stored = cluster.publish(self.replica, self._host.resident_hashes())
            published += stored
            self._demote_seconds += cluster.transfer_time(stored)
            self._host.clear()
        self._demoted += published
        self._bytes_down += published * self._block_bytes
        if published:
            self.obs.emit(self._obs_now, self.obs_key, "demote", blocks=published)
        return published

    def clear(self) -> None:
        """Drop per-replica tier state (between experiments)."""
        if self._host is not None:
            self._host.clear()
        self._hit_counts.clear()


def build_tiered_store(config: KVTiersSpec, *, replica: str, block_size: int,
                       block_bytes: int,
                       cluster: ClusterPrefixStore | None = None,
                       compute_tokens_per_second: float = 0.0) -> TieredPrefixStore | None:
    """Construct one replica's tiered store from a :class:`KVTiersSpec`.

    Returns None when the config is disabled.  The cluster store is shared
    fleet-wide and therefore injected, not built here; pass None to run a
    two-tier (GPU + host) hierarchy.  A host tier too small to hold one
    block is not built.
    """
    if not config.enabled:
        return None
    host = None
    host_tier = config.host
    host_bytes = int(host_tier.capacity_gib * (1 << 30))
    if host_bytes >= block_bytes:
        host = CPUOffloadStore(
            capacity_bytes=host_bytes,
            block_bytes=block_bytes,
            link=get_interconnect(host_tier.link),
        )
    return TieredPrefixStore(
        replica=replica,
        block_size=block_size,
        block_bytes=block_bytes,
        host=host,
        cluster=cluster,
        promote_at=config.promote_at,
        demote_on_evict=config.demote_on_evict,
        compute_tokens_per_second=compute_tokens_per_second,
    )


def build_cluster_store(config: KVTiersSpec, *, block_bytes: int) -> ClusterPrefixStore | None:
    """Construct the fleet-shared L3 store from a :class:`KVTiersSpec`.

    Returns None when the config is disabled or sizes the cluster tier at 0.
    """
    cluster_tier = config.cluster
    if not config.enabled or cluster_tier.capacity_gib <= 0:
        return None
    return ClusterPrefixStore(
        capacity_bytes=int(cluster_tier.capacity_gib * (1 << 30)),
        block_bytes=block_bytes,
        link=get_interconnect(cluster_tier.link),
    )
