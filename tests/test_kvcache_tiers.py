"""Tests for the tiered prefix-cache subsystem (config, stores, invariants)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TierCapacityError, TierError, UnknownNameError, UnknownTierError
from repro.kvcache.allocator import BlockAllocator
from repro.kvcache.block import hash_token_blocks
from repro.kvcache.manager import CommitPolicy, KVCacheManager
from repro.kvcache.prefix_tree import RadixPrefixCache
from repro.kvcache.tiers import (
    ClusterPrefixStore,
    TieredPrefixStore,
    build_cluster_store,
    build_tiered_store,
    make_promotion_policy,
    tier_config_from_dict,
)
from repro.kvcache.tiers.policy import AlwaysPromote, NeverPromote, PromoteOnNthHit
from repro.spec.models import KVTiersSpec

BLOCK_SIZE = 4
BLOCK_BYTES = 1024


def chain(n, seed=0):
    """n chained block hashes over distinct token content."""
    tokens = [seed * 100_000 + i for i in range(n * BLOCK_SIZE)]
    return tuple(hash_token_blocks(tokens, BLOCK_SIZE))


def make_stack(*, gpu_blocks=8, host_blocks=8, cluster_blocks=32,
               promotion="always", threshold=2, demote_on_evict=True,
               replica="r0", cluster=None):
    """A manager + tiered store with capacities expressed in blocks."""
    config = tier_config_from_dict({
        "enabled": True,
        "tiers": {
            "host": {"capacity_gib": host_blocks * BLOCK_BYTES / (1 << 30)},
            "cluster": {"capacity_gib": cluster_blocks * BLOCK_BYTES / (1 << 30)},
        },
        "promotion": promotion,
        "promotion_threshold": threshold,
        "demote_on_evict": demote_on_evict,
    })
    if cluster is None:
        cluster = build_cluster_store(config, block_bytes=BLOCK_BYTES)
    tiers = build_tiered_store(
        config, replica=replica, block_size=BLOCK_SIZE, block_bytes=BLOCK_BYTES,
        cluster=cluster, compute_tokens_per_second=1000.0,
    )
    manager = KVCacheManager(gpu_blocks * BLOCK_SIZE, block_size=BLOCK_SIZE, tiers=tiers)
    return manager, tiers, cluster


def run_request(manager, hashes, *, now=0.0, policy=CommitPolicy.SUFFIX_DISCARD):
    """One begin -> fetch -> finish cycle, like the engine's execution path."""
    lease = manager.begin_execution(
        hashes, len(hashes) * BLOCK_SIZE, reserve_full_kv=False, now=now
    )
    tier_tokens, load_seconds = manager.fetch_tiers(hashes, now=now)
    manager.finish_execution(lease, policy=policy, now=now + 0.5)
    return tier_tokens, load_seconds


# ------------------------------------------------------------------- config


def test_tier_config_defaults_disabled():
    assert KVTiersSpec().enabled is False
    assert tier_config_from_dict({}).enabled is False


def test_tier_config_parses_full_block():
    config = tier_config_from_dict({
        "enabled": True,
        "tiers": {"host": {"capacity_gib": 2.0, "link": "pcie-gen4"},
                  "cluster": {"capacity_gib": 8.0, "link": "nvlink"}},
        "promotion": "on-nth-hit",
        "promotion_threshold": 3,
        "demote_on_evict": False,
        "prefetch": False,
    })
    assert config.enabled and config.host.capacity_gib == 2.0
    assert config.cluster.capacity_gib == 8.0
    assert config.promotion_threshold == 3
    assert config.demote_on_evict is False and config.prefetch is False


def test_unknown_tier_name_lists_valid_tiers_and_path():
    with pytest.raises(UnknownTierError) as excinfo:
        tier_config_from_dict({"enabled": True, "tiers": {"hots": {}}})
    message = str(excinfo.value)
    assert "kv_tiers.tiers" in message
    assert "host" in message and "cluster" in message
    assert excinfo.value.name == "hots"
    # The typed error is catchable as a TierError too.
    assert isinstance(excinfo.value, TierError)


def test_negative_capacity_raises_tier_capacity_error_with_path():
    with pytest.raises(TierCapacityError) as excinfo:
        tier_config_from_dict(
            {"enabled": True, "tiers": {"host": {"capacity_gib": -1}}}
        )
    assert "kv_tiers.tiers.host.capacity_gib" in str(excinfo.value)
    assert excinfo.value.tier == "host"


@pytest.mark.parametrize("capacity", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_capacity_raises_tier_error_with_path(capacity):
    with pytest.raises(TierError) as excinfo:
        tier_config_from_dict(
            {"enabled": True, "tiers": {"host": {"capacity_gib": capacity}}}
        )
    assert "kv_tiers.tiers.host.capacity_gib" in str(excinfo.value)
    assert "finite" in str(excinfo.value)


def test_non_numeric_capacity_rejected():
    with pytest.raises(TierCapacityError):
        tier_config_from_dict(
            {"enabled": True, "tiers": {"cluster": {"capacity_gib": "big"}}}
        )


def test_unknown_config_keys_rejected():
    with pytest.raises(TierError):
        tier_config_from_dict({"enabled": True, "promtion": "always"})
    with pytest.raises(TierError):
        tier_config_from_dict({"enabled": True, "tiers": {"host": {"gib": 1}}})


def test_unknown_promotion_policy_rejected_at_parse_time():
    with pytest.raises(TierError) as excinfo:
        tier_config_from_dict({"enabled": True, "promotion": "alwys"})
    assert "kv_tiers.promotion" in str(excinfo.value)
    assert "always" in str(excinfo.value)
    with pytest.raises(TierError) as excinfo:
        tier_config_from_dict({"enabled": True, "promotion_threshold": "two"})
    assert "kv_tiers.promotion_threshold" in str(excinfo.value)


def test_promotion_policy_registry():
    assert isinstance(make_promotion_policy("always"), AlwaysPromote)
    assert isinstance(make_promotion_policy("never"), NeverPromote)
    policy = make_promotion_policy("on-nth-hit", threshold=3)
    assert isinstance(policy, PromoteOnNthHit)
    assert not policy.should_promote(1, 2)
    assert policy.should_promote(1, 3)
    with pytest.raises(UnknownNameError):
        make_promotion_policy("sometimes")


def test_build_tiered_store_disabled_returns_none():
    config = tier_config_from_dict({"enabled": False})
    assert build_tiered_store(config, replica="r", block_size=4, block_bytes=8) is None
    assert build_cluster_store(config, block_bytes=8) is None


# ------------------------------------------------------------ cluster store


def test_cluster_store_publish_fetch_lru():
    store = ClusterPrefixStore(capacity_bytes=4 * BLOCK_BYTES, block_bytes=BLOCK_BYTES)
    hashes = list(chain(6))
    stored, seconds = store.publish("a", hashes[:4])
    assert stored == 4 and seconds > 0
    assert store.match_length(hashes) == 4
    # Publishing beyond capacity evicts LRU entries.
    store.publish("a", hashes[4:])
    assert store.num_blocks == 4
    assert hashes[0] not in store and hashes[5] in store
    assert store.stats.evicted_blocks == 2


def test_cluster_store_peer_fetch_accounting():
    store = ClusterPrefixStore(capacity_bytes=8 * BLOCK_BYTES, block_bytes=BLOCK_BYTES)
    hashes = list(chain(2))
    store.publish("a", hashes)
    assert store.fetch_block("b", hashes[0])
    assert store.fetch_block("a", hashes[1])
    stats = store.stats
    assert stats.fetched_blocks == 2
    assert stats.peer_fetched_blocks == 1
    assert stats.hits_by_replica == {"a": 1, "b": 1}
    # Reads never remove; reclaim is explicit and owner-only.
    assert hashes[0] in store
    assert not store.discard_owned("b", hashes[0])
    assert store.discard_owned("a", hashes[0])
    assert hashes[0] not in store


def test_cluster_store_republish_keeps_owner():
    store = ClusterPrefixStore(capacity_bytes=8 * BLOCK_BYTES, block_bytes=BLOCK_BYTES)
    hashes = list(chain(1))
    store.publish("a", hashes)
    stored, _ = store.publish("b", hashes)
    assert stored == 0
    assert store.owner_of(hashes[0]) == "a"


# ------------------------------------------------------------- tiered store


def test_commit_overflow_demotes_into_host_then_cluster():
    manager, tiers, cluster = make_stack(gpu_blocks=4, host_blocks=2, cluster_blocks=32)
    hashes = chain(10)
    run_request(manager, hashes)
    l1 = set(manager._cache.resident_hashes())
    l2 = set(tiers.host.resident_hashes())
    l3 = set(cluster.resident_hashes())
    assert len(l1) == 4 and len(l2) == 2
    # Everything the GPU and host could not keep cascaded into the cluster.
    assert l1 | l2 | l3 == set(hashes)


def test_fetch_streams_continuation_and_charges_transfer():
    manager, tiers, cluster = make_stack(gpu_blocks=4, host_blocks=4, cluster_blocks=32,
                                         promotion="never")
    hashes = chain(12)
    run_request(manager, hashes, now=0.0)
    tier_tokens, load_seconds = run_request(manager, hashes, now=10.0)
    # 4 blocks on the GPU; the remaining 8 streamed from host + cluster.
    assert tier_tokens == 8 * BLOCK_SIZE
    assert load_seconds > 0
    stats = tiers.stats
    assert stats.host_hit_blocks + stats.cluster_hit_blocks == 8
    assert stats.promoted_blocks == 0  # policy: never


def test_promote_on_nth_hit_waits_for_second_hit():
    manager, tiers, cluster = make_stack(gpu_blocks=8, host_blocks=8, cluster_blocks=32,
                                         promotion="on-nth-hit", threshold=2)
    short = chain(4, seed=1)   # fits on the GPU entirely
    long = chain(8, seed=2)    # evicts `short` when committed

    run_request(manager, short, now=0.0)
    run_request(manager, long, now=1.0)   # pressure demotes part of `short`
    demoted = set(tiers.host.resident_hashes())
    assert demoted, "expected eviction pressure to demote blocks"

    # First re-use: streamed from host, hit count 1 < 2 -> stays in host.
    run_request(manager, short, now=2.0)
    assert tiers.stats.promoted_blocks == 0
    # Second re-use: hit count reaches 2 -> promoted into L1.
    run_request(manager, short, now=3.0)
    assert tiers.stats.promoted_blocks > 0


def test_prefetch_warms_l1_without_charging_requests():
    manager, tiers, cluster = make_stack(gpu_blocks=8, host_blocks=8, cluster_blocks=32,
                                         promotion="never")
    hashes = chain(8, seed=3)
    run_request(manager, hashes, now=0.0)
    # Evict everything from L1 (demotes into the tiers).
    manager._cache.evict_blocks(8)
    assert manager.lookup(hashes) == 0
    moved = manager.prefetch_tiers(hashes, now=1.0)
    assert moved == 8 * BLOCK_SIZE
    assert manager.lookup(hashes) == 8 * BLOCK_SIZE
    stats = tiers.stats
    assert stats.prefetched_blocks == 8
    assert stats.prefetch_seconds > 0
    assert stats.load_seconds == 0.0  # nothing was charged to a request


def test_repeat_overflow_of_parked_blocks_is_not_recounted():
    """Re-offering already-host-resident overflow must not inflate demotion."""
    manager, tiers, cluster = make_stack(gpu_blocks=4, host_blocks=8,
                                         cluster_blocks=32, promotion="never")
    hashes = chain(8, seed=8)
    run_request(manager, hashes, now=0.0)
    demoted_once = tiers.stats.demoted_blocks
    bytes_once = tiers.stats.bytes_down
    assert demoted_once == 4  # the 4-block suffix that missed the GPU
    for step in range(5):
        run_request(manager, hashes, now=1.0 + step)
    # The suffix stays parked in the host tier; nothing new moved down.
    assert tiers.stats.demoted_blocks == demoted_once
    assert tiers.stats.bytes_down == bytes_once


def test_prefetch_counts_are_not_double_booked_as_promotions():
    manager, tiers, cluster = make_stack(gpu_blocks=8, host_blocks=8,
                                         cluster_blocks=32, promotion="never")
    hashes = chain(6, seed=10)
    run_request(manager, hashes, now=0.0)
    manager._cache.evict_blocks(6)
    moved = manager.prefetch_tiers(hashes, now=1.0)
    assert moved == 6 * BLOCK_SIZE
    stats = tiers.stats
    # Prefetch landings are prefetches, not promotions — even though the
    # blocks moved up; a never-promote policy must report zero promotions.
    assert stats.prefetched_blocks == 6
    assert stats.promoted_blocks == 0


def test_drain_publishes_l1_and_host_to_cluster():
    manager, tiers, cluster = make_stack(gpu_blocks=4, host_blocks=4, cluster_blocks=32)
    hashes = chain(8, seed=4)
    run_request(manager, hashes)
    before = set(cluster.resident_hashes())
    published = manager.drain()
    assert published > 0
    after = set(cluster.resident_hashes())
    # Every prefix block the replica held is now matchable fleet-wide.
    assert set(hashes) <= after | before
    assert cluster.match_length(hashes) == len(hashes)
    assert tiers.host.num_blocks == 0


def test_drain_refuses_with_active_lease():
    manager, tiers, cluster = make_stack()
    hashes = chain(4, seed=5)
    lease = manager.begin_execution(hashes, 4 * BLOCK_SIZE, reserve_full_kv=False)
    assert manager.num_active_leases == 1
    with pytest.raises(TierError):
        manager.drain()
    manager.finish_execution(lease, policy=CommitPolicy.SUFFIX_DISCARD)
    assert manager.num_active_leases == 0
    manager.drain()


def test_peer_replica_fetches_published_prefix():
    """A prefix computed on replica A is matchable and fetchable on replica B."""
    shared_config = tier_config_from_dict({"enabled": True, "tiers": {
        "host": {"capacity_gib": 0.0},
        "cluster": {"capacity_gib": 32 * BLOCK_BYTES / (1 << 30)},
    }})
    cluster = build_cluster_store(shared_config, block_bytes=BLOCK_BYTES)
    manager_a, tiers_a, _ = make_stack(gpu_blocks=4, host_blocks=0, cluster_blocks=0,
                                       replica="a", cluster=cluster)
    manager_b, tiers_b, _ = make_stack(gpu_blocks=4, host_blocks=0, cluster_blocks=0,
                                       replica="b", cluster=cluster, promotion="never")
    hashes = chain(8, seed=6)
    run_request(manager_a, hashes)   # A computes; overflow publishes to L3
    manager_a.drain()                # ... and a scale-down drains A's L1 prefix
    assert cluster.match_length(hashes) == len(hashes)
    lookup = manager_b.lookup_with_tiers(hashes)
    assert lookup.cluster_tokens == 8 * BLOCK_SIZE  # B sees A's blocks
    tier_tokens, _ = run_request(manager_b, hashes)
    assert tier_tokens == lookup.cluster_tokens
    assert cluster.stats.peer_fetched_blocks > 0
    assert set(cluster.stats.hits_by_replica) == {"b"}


def test_tier_lookup_read_only():
    manager, tiers, cluster = make_stack(gpu_blocks=4, host_blocks=4, cluster_blocks=32)
    hashes = chain(8, seed=7)
    run_request(manager, hashes)
    watched = set(hashes)
    assert manager.take_changes(watched) is None  # starts watching every block
    stats_before = tiers.stats
    lookup = manager.lookup_with_tiers(hashes)
    assert lookup.total_tokens == 8 * BLOCK_SIZE
    assert lookup.penalty_tokens == pytest.approx(lookup.load_seconds * 1000.0)
    assert manager.take_changes(watched) == set()  # a lookup records no change
    assert tiers.stats == stats_before


def test_manager_rejects_conflicting_stores():
    from repro.kvcache.offload import CPUOffloadStore

    tiers = TieredPrefixStore(replica="r", block_size=BLOCK_SIZE, block_bytes=BLOCK_BYTES)
    offload = CPUOffloadStore(capacity_bytes=BLOCK_BYTES, block_bytes=BLOCK_BYTES)
    with pytest.raises(TierError):
        KVCacheManager(64, block_size=BLOCK_SIZE, tiers=tiers, offload_store=offload)
    with pytest.raises(TierError):
        KVCacheManager(64, block_size=8, tiers=tiers)


# ------------------------------------------------- property-based invariants


def residency_sets(manager, tiers, cluster):
    l1 = set(manager._cache.resident_hashes())
    l2 = set(tiers.host.resident_hashes()) if tiers.host is not None else set()
    l3 = set(cluster.resident_hashes()) if cluster is not None else set()
    return l1, l2, l3


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    promotion=st.sampled_from(["always", "never", "on-nth-hit"]),
    gpu_blocks=st.integers(min_value=2, max_value=6),
    host_blocks=st.integers(min_value=0, max_value=6),
)
def test_block_never_resident_in_two_tiers(data, promotion, gpu_blocks, host_blocks):
    """Single-replica exclusivity: every hash lives in at most one tier.

    With one replica, every cluster entry is self-owned, so full pairwise
    disjointness of L1 / L2 / L3 must hold after every operation.
    """
    manager, tiers, cluster = make_stack(
        gpu_blocks=gpu_blocks, host_blocks=host_blocks, cluster_blocks=16,
        promotion=promotion,
    )
    chains = [chain(data.draw(st.integers(1, 8), label=f"len{i}"), seed=i)
              for i in range(4)]
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(["run", "prefetch", "evict"]), st.integers(0, 3)),
        min_size=1, max_size=12,
    ), label="ops")
    now = 0.0
    for op, which in ops:
        now += 1.0
        hashes = chains[which]
        if op == "run":
            run_request(manager, hashes, now=now)
        elif op == "prefetch":
            manager.prefetch_tiers(hashes, now=now)
        else:
            manager._cache.evict_blocks(1)
        l1, l2, l3 = residency_sets(manager, tiers, cluster)
        assert not (l1 & l2), "hash resident in both L1 and L2"
        assert not (l2 & l3), "hash resident in both L2 and L3"
        assert not (l1 & l3), "hash resident in both L1 and L3"


@settings(max_examples=30, deadline=None)
@given(num_blocks=st.integers(min_value=1, max_value=6),
       host_blocks=st.integers(min_value=6, max_value=12))
def test_demote_promote_round_trip_is_byte_neutral(num_blocks, host_blocks):
    """Evict-to-host then promote-back moves the same bytes down and up."""
    manager, tiers, cluster = make_stack(
        gpu_blocks=8, host_blocks=host_blocks, cluster_blocks=32, promotion="always",
    )
    hashes = chain(num_blocks, seed=9)
    run_request(manager, hashes, now=0.0)
    l1_before, _, _ = residency_sets(manager, tiers, cluster)
    assert l1_before == set(hashes)

    base = tiers.stats
    evicted = manager._cache.evict_blocks(num_blocks)
    assert evicted == num_blocks
    after_demote = tiers.stats
    assert after_demote.bytes_down - base.bytes_down == num_blocks * BLOCK_BYTES

    moved = manager.prefetch_tiers(hashes, now=1.0)
    assert moved == num_blocks * BLOCK_SIZE
    after_promote = tiers.stats
    assert after_promote.bytes_up - after_demote.bytes_up == num_blocks * BLOCK_BYTES
    # The round trip is byte-neutral: down equals up, and residency returns
    # to exactly the starting state.
    assert (after_promote.bytes_down - base.bytes_down
            == after_promote.bytes_up - after_demote.bytes_up)
    l1, l2, l3 = residency_sets(manager, tiers, cluster)
    assert l1 == l1_before and not (l2 | l3) & set(hashes)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), capacity_blocks=st.integers(min_value=2, max_value=6))
def test_l1_eviction_order_matches_seed_with_tiering_enabled(data, capacity_blocks):
    """With L2/L3 disabled, the tiered cache evicts the seed's exact victims.

    The demotion hook only *observes* evictions; victim selection must be
    untouched.  Runs the same insert/evict script against a bare radix cache
    and one with a (sink-less) tiered store attached, recording both victim
    sequences through the eviction hook.
    """
    def build(record):
        allocator = BlockAllocator(capacity_blocks, BLOCK_SIZE)
        cache = RadixPrefixCache(allocator)
        return allocator, cache, record

    bare_victims: list[int] = []
    tiered_victims: list[int] = []
    _, bare, _ = build(bare_victims)
    bare.on_evict = lambda h, t: bare_victims.append(h)

    _, tiered_cache, _ = build(tiered_victims)
    tiers = TieredPrefixStore(replica="r", block_size=BLOCK_SIZE,
                              block_bytes=BLOCK_BYTES, host=None, cluster=None)
    tiers.bind_gpu_cache(tiered_cache)
    demote_hook = tiered_cache.on_evict
    tiered_cache.on_evict = lambda h, t: (tiered_victims.append(h), demote_hook(h, t))

    chains = [chain(data.draw(st.integers(1, 4), label=f"len{i}"), seed=i)
              for i in range(3)]
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(["insert", "evict"]), st.integers(0, 2)),
        min_size=1, max_size=15,
    ), label="ops")
    now = 0.0
    for op, which in ops:
        now += 1.0
        for cache in (bare, tiered_cache):
            if op == "insert":
                cache.insert(chains[which], now=now)
            else:
                cache.evict_blocks(1)
    assert tiered_victims == bare_victims
    assert (set(bare.resident_hashes())
            == set(tiered_cache.resident_hashes()))
