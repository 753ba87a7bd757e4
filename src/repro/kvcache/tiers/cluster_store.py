"""The fleet-shared L3 prefix store.

One :class:`ClusterPrefixStore` is shared by every replica of a
:class:`~repro.cluster.Fleet`: blocks demoted out of a replica's host tier —
or drained from a retiring replica's radix tree — are *published* here, and
any replica whose request matches them can *fetch* them back instead of
recomputing the prefix.  Because block identity is the chained content hash
(replica-independent by construction), a prefix computed on replica A matches
verbatim on replica B; the store is what turns N per-replica caches into one
pool.

Semantics:

* **publish** is idempotent per hash — re-publishing refreshes LRU recency
  and, when the hash is already present, keeps the original owner.
* **fetch** is a read over the configured interconnect: the entry stays so
  other replicas keep matching it; fetches by non-owners are counted as
  ``peer_fetches`` — the fleet-wide sharing the subsystem exists for.  When
  a fetched block lands in a higher tier of its *owner's* hierarchy, the
  tiered store reclaims the entry via :meth:`ClusterPrefixStore.discard_owned`
  (the per-owner single-residency invariant the property tests pin).
* eviction is LRU over the byte budget; evicted blocks are gone (L3 is the
  bottom of the hierarchy).

Per-replica hit/publish counters make fleet-wide accounting possible without
the store knowing anything about fleets.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Container, Sequence

from repro.hardware.interconnect import Interconnect, NVLINK


@dataclass(frozen=True)
class ClusterStoreStats:
    """Cumulative counters of the cluster-shared store."""

    published_blocks: int
    fetched_blocks: int
    peer_fetched_blocks: int
    evicted_blocks: int
    current_blocks: int
    current_bytes: int
    bytes_in: int
    bytes_out: int
    hits_by_replica: dict = field(default_factory=dict)
    publishes_by_replica: dict = field(default_factory=dict)


class ClusterPrefixStore:
    """LRU store of KV blocks shared across a fleet's replicas.

    The store keeps one change record per subscribed watched container (each
    replica's SRJF frontier index, see :mod:`repro.core.scheduler`).  A
    membership change — a publish of a new hash, an LRU eviction,
    :meth:`discard_owned`, :meth:`clear` — is recorded into every subscriber
    that watches the hash, so a peer replica's publish reaches each
    replica's index (:meth:`take_changes`).  Reachability and the
    transfer-cost multiplier are not recorded: the managers compare them
    between calls themselves
    (:meth:`~repro.kvcache.manager.KVCacheManager.take_changes`).

    Args:
        capacity_bytes: Byte budget of the shared pool.
        block_bytes: Size of one KV block in bytes (homogeneous across the
            fleet — asserted by the fleet when tiering is enabled).
        link: Interconnect charged for replica <-> store transfers.
    """

    def __init__(self, capacity_bytes: int, block_bytes: int,
                 link: Interconnect = NVLINK) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self._capacity_bytes = capacity_bytes
        self._block_bytes = block_bytes
        self._link = link
        #: content hash -> owning replica name, in LRU order (MRU last).
        self._blocks: OrderedDict[int, str] = OrderedDict()
        self._published = 0
        self._fetched = 0
        self._peer_fetched = 0
        self._evicted = 0
        self._bytes_in = 0
        self._bytes_out = 0
        self._hits_by_replica: dict[str, int] = {}
        self._publishes_by_replica: dict[str, int] = {}
        #: id(watched container) -> (the container, its change record).
        self._subscribers: dict[int, tuple[Container[int], set[int]]] = {}
        self._available = True
        self._publish_paused = False
        #: Transfer-cost multiplier applied to every modelled transfer time.
        #: 1.0 (the default) is a bit-exact no-op; the fault subsystem raises
        #: it during interconnect brownouts.
        self.cost_multiplier: float = 1.0

    # ---------------------------------------------------------------- state

    @property
    def capacity_blocks(self) -> int:
        """How many blocks fit in the byte budget."""
        return self._capacity_bytes // self._block_bytes

    @property
    def block_bytes(self) -> int:
        return self._block_bytes

    @property
    def num_blocks(self) -> int:
        """Blocks currently stored."""
        return len(self._blocks)

    @property
    def link(self) -> Interconnect:
        return self._link

    @property
    def stats(self) -> ClusterStoreStats:
        return ClusterStoreStats(
            published_blocks=self._published,
            fetched_blocks=self._fetched,
            peer_fetched_blocks=self._peer_fetched,
            evicted_blocks=self._evicted,
            current_blocks=len(self._blocks),
            current_bytes=len(self._blocks) * self._block_bytes,
            bytes_in=self._bytes_in,
            bytes_out=self._bytes_out,
            hits_by_replica=dict(self._hits_by_replica),
            publishes_by_replica=dict(self._publishes_by_replica),
        )

    @property
    def available(self) -> bool:
        """Whether the store is reachable (the fault subsystem's L3 outage)."""
        return self._available

    def set_available(self, available: bool) -> None:
        """Toggle reachability.  During an outage reads miss and writes are
        refused (and lost); stored blocks survive and become visible again
        when the outage ends.  A toggle is not recorded in any change record:
        each manager sees :attr:`available` differ from its previous
        :meth:`~repro.kvcache.manager.KVCacheManager.take_changes` call and
        has its scheduler re-derive every waiting request."""
        self._available = bool(available)

    def set_publish_paused(self, paused: bool) -> None:
        """Pause / resume publish traffic (degraded-mode serving).

        Unlike an outage, reads stay up — resident blocks remain fetchable —
        and the store's contents are untouched; only new writes are refused
        (and lost, like writes during an outage).
        """
        self._publish_paused = bool(paused)

    def __contains__(self, content_hash: int) -> bool:
        return self._available and content_hash in self._blocks

    def owner_of(self, content_hash: int) -> str | None:
        """The replica that published ``content_hash``, or None when absent."""
        if not self._available:
            return None
        return self._blocks.get(content_hash)

    def resident_hashes(self) -> list[int]:
        """Stored content hashes in LRU order (oldest first).

        Empty while the store is unavailable — an outage hides the contents
        from every reader, warm restore included.
        """
        if not self._available:
            return []
        return list(self._blocks)

    def take_changes(self, watched: Container[int]) -> set[int] | None:
        """Hashes in ``watched`` published, evicted, discarded or cleared since
        this subscriber's previous call.

        ``watched`` is a live container its owner keeps updating, and it is
        the subscriber's key (by identity).  A change is recorded only if its
        hash is watched when it happens.  A container that is not subscribed
        yet is subscribed with an empty record and gets None.  A subscriber
        whose container is empty when it calls is dropped after this call
        (its next call gets None), so a crashed or retired replica's index
        stops costing every publish a membership test.
        """
        subscribers = self._subscribers
        key = id(watched)
        entry = subscribers.get(key)
        if entry is None:
            subscribers[key] = (watched, set())
            return None
        changed = entry[1]
        if not watched:
            del subscribers[key]
        elif changed:
            subscribers[key] = (watched, set())
        return changed

    # ------------------------------------------------------------------ I/O

    def publish(self, replica: str, block_hashes: Sequence[int]) -> tuple[int, float]:
        """Store blocks on behalf of ``replica``; return (stored, seconds).

        Already-present hashes are refreshed in LRU order (original owner
        kept) at no transfer cost; new hashes evict LRU entries as needed and
        are charged through the configured link.  While the store is
        unavailable the write is refused: nothing is stored and the offered
        blocks are lost (the caller's demotion path counts them as drops).
        """
        if not self._available or self._publish_paused:
            return 0, 0.0
        stored = 0
        blocks = self._blocks
        subscribers = self._subscribers.values()
        for content_hash in block_hashes:
            if content_hash in blocks:
                blocks.move_to_end(content_hash)
                continue
            if self.capacity_blocks == 0:
                continue
            while len(blocks) >= self.capacity_blocks:
                victim, _ = blocks.popitem(last=False)
                self._evicted += 1
                for watched, changed in subscribers:
                    if victim in watched:
                        changed.add(victim)
            blocks[content_hash] = replica
            for watched, changed in subscribers:
                if content_hash in watched:
                    changed.add(content_hash)
            stored += 1
        self._published += stored
        self._bytes_in += stored * self._block_bytes
        if stored:
            self._publishes_by_replica[replica] = (
                self._publishes_by_replica.get(replica, 0) + stored
            )
        return stored, self._transfer_time(stored)

    def fetch_block(self, replica: str, content_hash: int) -> bool:
        """Record one block read by ``replica``; return whether it was present.

        A fetch is a *read*: the entry stays (refreshed in LRU order) so other
        replicas keep matching it.  When the block subsequently lands in a
        higher tier of the owner's own hierarchy, the tiered store reclaims
        the entry explicitly through :meth:`discard_owned` — that is what
        keeps a block single-resident per owner.  Fetches by non-owners are
        counted separately as ``peer_fetches`` (the cross-replica sharing this
        store exists for).  Transfer time is *not* charged here — callers
        batch blocks and charge one :meth:`transfer_time` per tier visit, so a
        ten-block continuation pays the link latency once, not ten times.
        """
        if not self._available:
            return False
        owner = self._blocks.get(content_hash)
        if owner is None:
            return False
        self._fetched += 1
        self._bytes_out += self._block_bytes
        self._hits_by_replica[replica] = self._hits_by_replica.get(replica, 0) + 1
        if owner != replica:
            self._peer_fetched += 1
        self._blocks.move_to_end(content_hash)
        return True

    def discard_owned(self, replica: str, content_hash: int) -> bool:
        """Drop ``replica``'s own entry for ``content_hash``, if any.

        Used when the owner re-acquires the block through another path (e.g.
        a commit overflow landing in its host tier) so the block is never
        resident in two tiers under the same owner.
        """
        if self._blocks.get(content_hash) == replica:
            del self._blocks[content_hash]
            for watched, changed in self._subscribers.values():
                if content_hash in watched:
                    changed.add(content_hash)
            return True
        return False

    def match_length(self, block_hashes: Sequence[int]) -> int:
        """Length (in blocks) of the stored prefix of ``block_hashes``."""
        count = 0
        for content_hash in block_hashes:
            if content_hash not in self:
                break
            count += 1
        return count

    def transfer_time(self, num_blocks: int) -> float:
        """Modelled seconds to move ``num_blocks`` over the store's link."""
        return self._transfer_time(num_blocks)

    def _transfer_time(self, num_blocks: int) -> float:
        if num_blocks == 0:
            return 0.0
        seconds = num_blocks * self._block_bytes / self._link.bandwidth + self._link.latency
        return seconds * self.cost_multiplier

    def clear(self) -> None:
        """Drop everything stored (between experiments)."""
        for watched, changed in self._subscribers.values():
            changed.update(h for h in self._blocks if h in watched)
        self._blocks.clear()
