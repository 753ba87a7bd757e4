"""Differential oracle for the tier demotion cascade.

The production hierarchy moves its demotions in batches: the radix tree
hands the tiered store a pass's victims in one call, the host store returns
a call's LRU victims and the tiered store publishes them to the cluster in
one publish, a fetch stages its unpromoted tail in one pass that settles its
demotions once, and the ``demote`` events of one pass are recorded by one
recorder call.  The reference below is the block-at-a-time hierarchy the
batched one replaced: each victim runs its own hook the moment it leaves its
tier (the L1 reference is the full-scan :class:`ReferenceRadixCache` of
``tests/test_prefix_cache_oracle.py``), a fetch stages each cluster hit with
its own host store, victim publish and cluster discard, in that order, and
each demote event is its own ``emit``.  It keeps the per-block
``demote_seconds`` lost update: ``demote_seconds += host.store([h])`` reads
the sum before the store, so the cluster seconds of the host evictions that
store causes are overwritten.  The ``@example``s pin the staging order
without a random draw: a staged block's host victim reaches the cluster
before the victim's own turn in the tail, and a full cluster evicts an entry
to take the victim before the staged block's own copy is discarded.

Hypothesis drives the same ops through both, on two replicas that share one
cluster store: commits with overflow, fetches with staging, prefetches, warm
restores, drains, explicit L1 evictions, brownout multipliers, outage and
publish-pause toggles.  Capacities are tiny (L1 2-6 blocks, host 0-4,
cluster 0-6), ``demote_on_evict`` is on or off, and either lower tier may be
missing; a 0-block host counts as a missing one.  The production store
promotes at the ``promote_at`` of a parsed ``"kv_tiers"`` block and the
reference at its own table of thresholds (:data:`PROMOTE_AT`), so the oracle
pins the policy-name-to-threshold mapping too.  The ``on-nth-hit`` N is drawn
from 1-3: at N = 1 a block's first fetch from a lower tier reaches the
threshold, so the fetch's own promotion comparison is exercised.  After every op the two agree
on every ``TierStats``, ``OffloadStats`` and ``ClusterStoreStats`` field
(floats by ``float.hex``), on the host and cluster contents in LRU order
with owners, on the host and cluster change records, and on the recorded
events and counters.

Runs under the shared ``oracle-run`` hypothesis profile (``tests/conftest.py``).
"""

from __future__ import annotations

import math
from collections import OrderedDict

from hypothesis import example, given, settings, strategies as st

from repro.hardware.interconnect import NVLINK, PCIE_GEN4
from repro.kvcache.allocator import BlockAllocator
from repro.kvcache.offload import CPUOffloadStore
from repro.kvcache.prefix_tree import RadixPrefixCache
from repro.kvcache.tiers import ClusterPrefixStore, TieredPrefixStore
from repro.obs.recorder import TraceRecorder
from repro.spec.core import from_dict
from repro.spec.models import KVTiersSpec
from test_prefix_cache_oracle import ReferenceRadixCache, chain

BLOCK = 4
BLOCK_BYTES = 1024
MULTIPLIERS = (1.0, 3.0, 1.7)
#: The reference's lower-tier hit count at which each promotion policy
#: promotes a block (``on-nth-hit`` at its drawn N).  A commit asks with a
#: block's stored count, so ``always`` must be 0.
PROMOTE_AT = {"always": 0, "never": math.inf}


def transfer_time(link, multiplier: float, num_blocks: int) -> float:
    if num_blocks == 0:
        return 0.0
    return (num_blocks * BLOCK_BYTES / link.bandwidth + link.latency) * multiplier


class ReferenceHost:
    """Host LRU store whose hook fires once per victim, mid-store."""

    def __init__(self, capacity: int, watched) -> None:
        self.capacity = capacity
        self.blocks: OrderedDict[int, None] = OrderedDict()
        self.stored = self.evicted = 0
        self.on_evict = None
        self.cost_multiplier = 1.0
        self.watched, self.changed = watched, set()

    def record(self, content_hash: int) -> None:
        if content_hash in self.watched:
            self.changed.add(content_hash)

    def store(self, hashes) -> float:
        transferred = 0
        for content_hash in hashes:
            if content_hash in self.blocks:
                self.blocks.move_to_end(content_hash)
                continue
            while len(self.blocks) >= self.capacity and self.blocks:
                victim, _ = self.blocks.popitem(last=False)
                self.evicted += 1
                self.record(victim)
                if self.on_evict is not None:
                    self.on_evict(victim)
            if self.capacity == 0:
                break
            self.blocks[content_hash] = None
            self.record(content_hash)
            self.stored += 1
            transferred += 1
        return self.transfer_time(transferred)

    def transfer_time(self, num_blocks: int) -> float:
        return transfer_time(PCIE_GEN4, self.cost_multiplier, num_blocks)

    def discard(self, content_hash: int) -> bool:
        if content_hash not in self.blocks:
            return False
        del self.blocks[content_hash]
        self.record(content_hash)
        return True

    def clear(self) -> None:
        for content_hash in self.blocks:
            self.record(content_hash)
        self.blocks.clear()

    def take_changes(self):
        changed, self.changed = self.changed, set()
        return changed

    def stats(self) -> tuple:
        return (self.stored, 0, self.evicted, len(self.blocks),
                len(self.blocks) * BLOCK_BYTES)


class ReferenceCluster:
    """Fleet-shared LRU store with owners, one publish per call as offered."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.blocks: OrderedDict[int, str] = OrderedDict()
        self.available = True
        self.paused = False
        self.cost_multiplier = 1.0
        self.published = self.fetched = self.peer_fetched = self.evicted = 0
        self.bytes_in = self.bytes_out = 0
        self.hits: dict[str, int] = {}
        self.publishes: dict[str, int] = {}
        self.records: dict[str, tuple] = {}

    def record(self, content_hash: int) -> None:
        for watched, changed in self.records.values():
            if content_hash in watched:
                changed.add(content_hash)

    def __contains__(self, content_hash: int) -> bool:
        return self.available and content_hash in self.blocks

    def publish(self, replica: str, hashes) -> tuple[int, float]:
        if not self.available or self.paused:
            return 0, 0.0
        stored = 0
        for content_hash in hashes:
            if content_hash in self.blocks:
                self.blocks.move_to_end(content_hash)
                continue
            if self.capacity == 0:
                continue
            while len(self.blocks) >= self.capacity:
                victim, _ = self.blocks.popitem(last=False)
                self.evicted += 1
                self.record(victim)
            self.blocks[content_hash] = replica
            self.record(content_hash)
            stored += 1
        self.published += stored
        self.bytes_in += stored * BLOCK_BYTES
        if stored:
            self.publishes[replica] = self.publishes.get(replica, 0) + stored
        return stored, self.transfer_time(stored)

    def fetch_block(self, replica: str, content_hash: int) -> None:
        owner = self.blocks[content_hash]
        self.fetched += 1
        self.bytes_out += BLOCK_BYTES
        self.hits[replica] = self.hits.get(replica, 0) + 1
        if owner != replica:
            self.peer_fetched += 1
        self.blocks.move_to_end(content_hash)

    def discard_owned(self, replica: str, content_hash: int) -> bool:
        if self.blocks.get(content_hash) != replica:
            return False
        del self.blocks[content_hash]
        self.record(content_hash)
        return True

    def transfer_time(self, num_blocks: int) -> float:
        return transfer_time(NVLINK, self.cost_multiplier, num_blocks)

    def take_changes(self, replica: str):
        watched, changed = self.records[replica]
        self.records[replica] = (watched, set())
        return changed

    def stats(self) -> tuple:
        return (self.published, self.fetched, self.peer_fetched, self.evicted,
                len(self.blocks), len(self.blocks) * BLOCK_BYTES, self.bytes_in,
                self.bytes_out, dict(self.hits), dict(self.publishes))


class ReferenceTiers:
    """One replica's hierarchy with block-at-a-time eviction hooks."""

    def __init__(self, replica: str, key: int, l1: ReferenceRadixCache,
                 host: ReferenceHost | None, cluster: ReferenceCluster | None,
                 promote_at: float, demote_on_evict: bool, obs: TraceRecorder) -> None:
        self.replica, self.key = replica, key
        # A host that holds no whole block is no host tier.
        if host is not None and not host.capacity:
            host = None
        self.l1, self.host, self.cluster = l1, host, cluster
        self.promote_at, self.demote_on_evict, self.obs = promote_at, demote_on_evict, obs
        self.hit_counts: dict[int, int] = {}
        self.obs_now = 0.0
        self.host_hits = self.cluster_hits = self.promoted = self.demoted = 0
        self.dropped = self.prefetched = self.bytes_up = self.bytes_down = 0
        self.load_seconds = self.prefetch_seconds = self.demote_seconds = 0.0
        l1.on_evict = self.on_l1_evict
        if host is not None:
            host.on_evict = self.on_host_evict

    def stats(self) -> tuple:
        return (self.host_hits, self.cluster_hits, self.promoted, self.demoted,
                self.dropped, self.prefetched, self.bytes_up, self.bytes_down,
                self.load_seconds.hex(), self.prefetch_seconds.hex(),
                self.demote_seconds.hex())

    def in_host(self, content_hash: int) -> bool:
        return self.host is not None and content_hash in self.host.blocks

    def in_cluster(self, content_hash: int) -> bool:
        return self.cluster is not None and content_hash in self.cluster

    def walk(self, hashes, start: int) -> tuple[int, int]:
        host_blocks = cluster_blocks = 0
        for content_hash in hashes[start:]:
            if self.in_host(content_hash):
                host_blocks += 1
            elif self.in_cluster(content_hash):
                cluster_blocks += 1
            else:
                break
        return host_blocks, cluster_blocks

    def batch_seconds(self, host_blocks: int, cluster_blocks: int) -> float:
        seconds = 0.0
        if host_blocks:
            seconds += self.host.transfer_time(host_blocks)
        if cluster_blocks:
            seconds += self.cluster.transfer_time(cluster_blocks)
        return seconds

    def fetch(self, hashes, now: float) -> tuple:
        self.obs_now = now
        gpu_blocks = len(self.l1.cached_prefix(hashes))
        host_blocks, cluster_blocks = self.walk(hashes, gpu_blocks)
        total = host_blocks + cluster_blocks
        if total == 0:
            return (0, 0, 0.0.hex())
        continuation = list(hashes[gpu_blocks:gpu_blocks + total])
        self.host_hits += host_blocks
        self.cluster_hits += cluster_blocks
        self.bytes_up += total * BLOCK_BYTES
        load_seconds = self.batch_seconds(host_blocks, cluster_blocks)
        self.load_seconds += load_seconds
        self.obs.emit(now, self.key, "tier_hit", host_tokens=host_blocks * BLOCK,
                      cluster_tokens=cluster_blocks * BLOCK, load_s=load_seconds)
        promote_run, unbroken, peer_reads = 0, True, 0
        for content_hash in continuation:
            hits = self.hit_counts.get(content_hash, 0) + 1
            self.hit_counts[content_hash] = hits
            if not self.in_host(content_hash) and self.in_cluster(content_hash):
                self.cluster.fetch_block(self.replica, content_hash)
                peer_reads += 1
            if unbroken and hits >= self.promote_at:
                promote_run += 1
            else:
                unbroken = False
        if peer_reads:
            self.obs.emit(now, self.key, "peer_fetch", blocks=peer_reads)
        landed = self.promote(hashes, gpu_blocks, promote_run, now)
        self.promoted += landed
        if landed:
            self.obs.emit(now, self.key, "promote", blocks=landed)
        for content_hash in continuation[landed:]:
            if self.host is None:
                break
            if self.in_host(content_hash):
                self.host.store([content_hash])
            elif self.in_cluster(content_hash):
                self.host.store([content_hash])
                self.cluster.discard_owned(self.replica, content_hash)
        return (host_blocks * BLOCK, cluster_blocks * BLOCK, load_seconds.hex())

    def promote(self, hashes, gpu_blocks: int, run: int, now: float) -> int:
        if run == 0:
            return 0
        prefix = hashes[:gpu_blocks + run]
        resident = self.l1.insert(prefix, now)
        landed = max(resident - gpu_blocks, 0)
        self.reclaim(prefix[gpu_blocks:gpu_blocks + landed])
        return landed

    def reclaim(self, hashes) -> int:
        reclaimed = 0
        for content_hash in hashes:
            host_had = self.host.discard(content_hash) if self.host is not None else False
            cluster_had = (self.cluster.discard_owned(self.replica, content_hash)
                           if self.cluster is not None else False)
            if host_had or cluster_had:
                reclaimed += 1
                self.hit_counts.pop(content_hash, None)
        return reclaimed

    def commit(self, hashes, now: float) -> int:
        self.obs_now = now
        gpu_match = len(self.l1.cached_prefix(hashes))
        stop = gpu_match
        for content_hash in hashes[gpu_match:]:
            if ((self.in_host(content_hash) or self.in_cluster(content_hash))
                    and self.hit_counts.get(content_hash, 0) < self.promote_at):
                break
            stop += 1
        resident = self.l1.insert(hashes[:stop], now)
        reclaimed = self.reclaim(hashes[gpu_match:resident])
        self.promoted += reclaimed
        if reclaimed:
            self.obs.emit(now, self.key, "promote", blocks=reclaimed)
        if hashes[resident:]:
            self.accept_overflow(hashes[resident:], now)
        return resident

    def prefetch(self, hashes, now: float) -> int:
        self.obs_now = now
        gpu_blocks = len(self.l1.cached_prefix(hashes))
        host_blocks, cluster_blocks = self.walk(hashes, gpu_blocks)
        total = host_blocks + cluster_blocks
        if total == 0:
            return 0
        continuation = list(hashes[gpu_blocks:gpu_blocks + total])
        in_host = [self.in_host(content_hash) for content_hash in continuation]
        landed = self.promote(hashes, gpu_blocks, total, now)
        if landed == 0:
            return 0
        landed_host = sum(1 for flag in in_host[:landed] if flag)
        self.prefetched += landed
        self.bytes_up += landed * BLOCK_BYTES
        self.prefetch_seconds += self.batch_seconds(landed_host, landed - landed_host)
        self.obs.emit(now, self.key, "prefetch", blocks=landed)
        return landed * BLOCK

    def warm_restore(self, hashes, now: float) -> int:
        if self.host is None or self.cluster is None:
            return 0
        self.obs_now = now
        fresh = [content_hash for content_hash in hashes
                 if content_hash in self.cluster and content_hash not in self.host.blocks]
        if not fresh:
            return 0
        seconds = self.host.store(fresh)
        restored = sum(1 for content_hash in fresh if content_hash in self.host.blocks)
        self.prefetched += restored
        self.prefetch_seconds += seconds
        self.bytes_up += restored * BLOCK_BYTES
        return restored

    def accept_overflow(self, hashes, now: float) -> int:
        hashes = list(hashes)
        self.obs_now = now
        if self.host is not None:
            new_hashes = [h for h in hashes if h not in self.host.blocks]
            # The store's seconds are read before the sum: no lost update here.
            seconds = self.host.store(hashes)
            self.demote_seconds += seconds
            absorbed = sum(1 for h in new_hashes if h in self.host.blocks)
            for content_hash in hashes:
                if self.cluster is not None and content_hash in self.host.blocks:
                    self.cluster.discard_owned(self.replica, content_hash)
            self.demoted += absorbed
            self.bytes_down += absorbed * BLOCK_BYTES
            if absorbed:
                self.obs.emit(now, self.key, "demote", blocks=absorbed)
            return absorbed
        if self.cluster is not None:
            stored, seconds = self.cluster.publish(self.replica, hashes)
            self.demote_seconds += seconds
            self.demoted += stored
            self.bytes_down += stored * BLOCK_BYTES
            if stored:
                self.obs.emit(now, self.key, "demote", blocks=stored)
            return stored
        self.dropped += len(hashes)
        return 0

    def on_l1_evict(self, content_hash: int) -> None:
        if not self.demote_on_evict:
            self.dropped += 1
        elif self.host is not None:
            # The lost update: the sum is read before the store, so the
            # cluster seconds the store's host evictions add are overwritten.
            self.demote_seconds += self.host.store([content_hash])
            if content_hash in self.host.blocks:
                self.demoted += 1
                self.bytes_down += BLOCK_BYTES
                self.obs.emit(self.obs_now, self.key, "demote", blocks=1)
            else:
                self.dropped += 1
        elif self.cluster is not None:
            self.publish_victim(content_hash)
        else:
            self.dropped += 1

    def on_host_evict(self, content_hash: int) -> None:
        if not self.demote_on_evict or self.cluster is None:
            self.dropped += 1
        else:
            self.publish_victim(content_hash)

    def publish_victim(self, content_hash: int) -> None:
        stored, seconds = self.cluster.publish(self.replica, [content_hash])
        self.demote_seconds += seconds
        if stored:
            self.demoted += 1
            self.bytes_down += BLOCK_BYTES
            self.obs.emit(self.obs_now, self.key, "demote", blocks=1)
        elif content_hash not in self.cluster:
            self.dropped += 1

    def drain(self) -> int:
        if self.cluster is None:
            return 0
        published = 0
        stored, seconds = self.cluster.publish(self.replica, list(self.l1.parent))
        published += stored
        self.demote_seconds += seconds
        if self.host is not None:
            stored, seconds = self.cluster.publish(self.replica, list(self.host.blocks))
            published += stored
            self.demote_seconds += seconds
            self.host.clear()
        self.demoted += published
        self.bytes_down += published * BLOCK_BYTES
        if published:
            self.obs.emit(self.obs_now, self.key, "demote", blocks=published)
        return published


def hexed(stats) -> tuple:
    return tuple(value.hex() if isinstance(value, float) else value
                 for value in vars(stats).values())


# Each example draws a few trie paths that share prefixes.  Ops are drawn as
# byte pairs (one draw per example, not two per op): the first byte picks the
# op, weighting commits (which overflow and evict) and fetches (which promote
# and stage) over the rest; the second names a replica (bit 0), a path
# (bits 1 and up, modulo the path count), a clock tick (bit 4) and an
# eviction count or a brownout multiplier (bits 5-7).
OPS = ("commit",) * 4 + ("fetch",) * 3 + (
    "prefetch", "warm", "drain", "evict", "brownout", "outage", "pause")
paths = st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=8),
                 min_size=2, max_size=4)
ops = st.binary(min_size=16, max_size=80)


@settings.get_profile("oracle-run")
# Fetch staging order: a 6-block commit into a 2-block L1 overflows 4 blocks
# into a 2-block host, which pushes the first 2 into the cluster.  A fetch
# that promotes nothing then stages the 2 cluster hits one at a time, and
# each staging evicts a later tail block into the cluster before that
# block's turn comes.
@example(paths=[[0] * 6, [1]], ops=bytes([0, 0, 4, 0]), l1_blocks=2,
         host_blocks=2, cluster_blocks=6, demote_on_evict=True,
         promotion="never", threshold=2, watch=255)
# Fetch staging against a full cluster: the same commit leaves a full 2-block
# host and a full 2-block cluster.  Staging the first cluster hit evicts a
# host block, whose publish evicts the cluster's LRU entry, the staged
# block's own copy; discarding that copy before the publish would have made
# room and spared the entry, so the cluster's eviction count tells the two
# orders apart.
@example(paths=[[0] * 6, [1]], ops=bytes([0, 0, 4, 0]), l1_blocks=2,
         host_blocks=2, cluster_blocks=2, demote_on_evict=True,
         promotion="never", threshold=2, watch=255)
# A refreshed L1 victim still counts as demoted: a commit fills L1, a drain
# publishes L1 to the cluster (L1 stays), a warm restore stages the same
# blocks into the host, and evicting them from L1 finds them host-resident.
@example(paths=[[0, 0], [1]], ops=bytes([0, 0, 9, 0, 8, 0, 10, 32]), l1_blocks=2,
         host_blocks=2, cluster_blocks=4, demote_on_evict=True,
         promotion="never", threshold=2, watch=255)
@given(
    paths=paths, ops=ops,
    l1_blocks=st.integers(2, 6),
    # A missing tier (None) is drawn as one choice among the sizes.
    host_blocks=st.sampled_from((2, 1, 3, 4, 0, None)),
    cluster_blocks=st.sampled_from((3, 1, 2, 4, 5, 6, 0, None)),
    demote_on_evict=st.booleans(),
    promotion=st.sampled_from(["on-nth-hit", "never", "always"]),
    threshold=st.integers(1, 3),
    watch=st.integers(1, 255),
)
def test_batched_cascade_matches_per_block_reference(
        paths, ops, l1_blocks, host_blocks, cluster_blocks, demote_on_evict,
        promotion, threshold, watch):
    chains = [chain(path) for path in paths]
    # Each replica watches its own pseudo-random subset of the blocks (never
    # empty, so the cluster keeps both subscribers).
    blocks = sorted({block for hashes in chains for block in hashes})
    watched = [{block for index, block in enumerate(blocks)
                if (watch >> ((index + replica) % 8)) & 1} or {blocks[0]}
               for replica in range(2)]
    promote_at = from_dict(KVTiersSpec, {
        "enabled": True, "promotion": promotion, "promotion_threshold": threshold,
    }).promote_at
    prod_obs, ref_obs = TraceRecorder(), TraceRecorder()

    cluster = ref_cluster = None
    if cluster_blocks is not None:
        cluster = ClusterPrefixStore(cluster_blocks * BLOCK_BYTES, BLOCK_BYTES)
        ref_cluster = ReferenceCluster(cluster_blocks)
    replicas = []
    for key in range(2):
        name = f"r{key}"
        host = ref_host = None
        if host_blocks is not None:
            host = CPUOffloadStore(host_blocks * BLOCK_BYTES, BLOCK_BYTES)
            ref_host = ReferenceHost(host_blocks, watched[key])
            assert host.take_changes(watched[key]) is None
        if cluster is not None:
            assert cluster.take_changes(watched[key]) is None
            ref_cluster.records[name] = (watched[key], set())
        cache = RadixPrefixCache(BlockAllocator(l1_blocks, BLOCK))
        tiers = TieredPrefixStore(replica=name, block_size=BLOCK, block_bytes=BLOCK_BYTES,
                                  host=host, cluster=cluster, promote_at=promote_at,
                                  demote_on_evict=demote_on_evict)
        tiers.bind_gpu_cache(cache)
        tiers.obs, tiers.obs_key = prod_obs, key
        l1 = ReferenceRadixCache(l1_blocks)
        reference = ReferenceTiers(name, key, l1, ref_host, ref_cluster,
                                   PROMOTE_AT.get(promotion, threshold),
                                   demote_on_evict, ref_obs)
        replicas.append((cache, tiers, reference))

    now = 0.0
    for code, arg in zip(ops[::2], ops[1::2]):
        op = OPS[code % len(OPS)]
        cache, tiers, reference = replicas[arg & 1]
        hashes = chains[(arg >> 1) % len(chains)]
        now += (arg >> 4) & 1
        if op == "commit":
            assert tiers.commit(hashes, now=now) == reference.commit(hashes, now)
        elif op == "fetch":
            fetched = tiers.fetch(hashes, cache.match_length(hashes), now=now)
            assert (fetched.host_tokens, fetched.cluster_tokens,
                    fetched.load_seconds.hex()) == reference.fetch(hashes, now)
        elif op == "prefetch":
            assert (tiers.prefetch(hashes, cache.match_length(hashes), now=now)
                    == reference.prefetch(hashes, now))
        elif op == "warm":
            assert tiers.warm_restore(hashes, now=now) == reference.warm_restore(hashes, now)
        elif op == "drain":
            assert tiers.drain(cache.resident_hashes()) == reference.drain()
        elif op == "evict":
            count = (arg >> 5) % 4 + 1
            assert cache.evict_blocks(count) == reference.l1.evict_blocks(count)
        elif op == "brownout":
            multiplier = MULTIPLIERS[(arg >> 5) % len(MULTIPLIERS)]
            for _, prod, ref in replicas:
                for store in (prod.host, prod.cluster, ref.host, ref.cluster):
                    if store is not None:
                        store.cost_multiplier = multiplier
        elif op == "outage" and cluster is not None:
            cluster.set_available(not cluster.available)
            ref_cluster.available = not ref_cluster.available
        elif op == "pause" and cluster is not None:
            ref_cluster.paused = not ref_cluster.paused
            cluster.set_publish_paused(ref_cluster.paused)

        for key, (cache, tiers, reference) in enumerate(replicas):
            assert hexed(tiers.stats) == reference.stats()
            assert cache.resident_hashes() == list(reference.l1.parent)
            if tiers.host is not None:
                assert hexed(tiers.host.stats) == reference.host.stats()
                assert tiers.host.resident_hashes() == list(reference.host.blocks)
                assert (tiers.host.take_changes(watched[key])
                        == reference.host.take_changes())
            if cluster is not None:
                assert (cluster.take_changes(watched[key])
                        == ref_cluster.take_changes(f"r{key}"))
        if cluster is not None:
            assert hexed(cluster.stats) == ref_cluster.stats()
            visible = list(ref_cluster.blocks) if ref_cluster.available else []
            assert [(h, cluster.owner_of(h)) for h in cluster.resident_hashes()] == [
                (h, ref_cluster.blocks[h]) for h in visible]
        assert prod_obs.freeze() == ref_obs.freeze()
