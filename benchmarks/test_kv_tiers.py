"""KV tiering — tiered prefix cache versus suffix discard at equal GPU capacity.

Not a figure from the paper, but the quantitative case for the tiered
subsystem (the §9 direction: offload instead of discard, grown into a
GPU -> host -> cluster hierarchy).  The scenario is a multi-tenant bursty
fleet whose tenants each carry a large shared prompt prefix: every request
opens with its tenant's system prompt, so the prefix working set far exceeds
a deliberately small GPU KV budget.  With suffix discarding, whatever the
radix tree cannot hold is recomputed; with tiering, it streams back from host
memory or the fleet-shared cluster store at interconnect cost.

Both arms run the *same* GPU KV capacity (``kv_capacity_tokens``), the same
replica count, router, and arrival process — the only difference is where
evicted prefixes go.  The benchmark asserts the headline claim (>= 1.3x mean
latency at equal GPU capacity) and reports per-tier hit rates, which is also
where the cluster store's cross-replica sharing shows up (peer fetches:
replica B matching blocks that replica A published).
"""

from __future__ import annotations

from conftest import PAPER_SCALE, show

from repro.cluster import Fleet
from repro.core.engine import prefillonly_engine_spec
from repro.hardware.cluster import get_hardware_setup
from repro.simulation.arrival import MMPPArrivalProcess
from repro.simulation.simulator import simulate_fleet
from repro.spec.core import from_dict
from repro.spec.models import KVTiersSpec
from repro.workloads.trace import Request, TokenSegment, TokenSequence

NUM_REPLICAS = 2
GPU_KV_TOKENS = 4096           # deliberately small: ~ one tenant prefix
TENANT_PREFIX_TOKENS = 3072
USER_PREFIX_TOKENS = 512
DOC_TOKENS = 1024

if PAPER_SCALE:
    NUM_TENANTS, USERS_PER_TENANT, REQUESTS_PER_USER = 4, 8, 10
else:
    NUM_TENANTS, USERS_PER_TENANT, REQUESTS_PER_USER = 3, 4, 6


def shared_prefix_trace() -> list[Request]:
    """Multi-tenant requests: tenant prompt + user prefix + fresh document."""
    requests: list[Request] = []
    request_id = 0
    content_id = 0
    for tenant in range(NUM_TENANTS):
        tenant_segment = TokenSegment(
            content_id=1_000_000 + tenant, length=TENANT_PREFIX_TOKENS
        )
        for user in range(USERS_PER_TENANT):
            user_segment = TokenSegment(
                content_id=2_000_000 + tenant * 1000 + user,
                length=USER_PREFIX_TOKENS,
            )
            for _ in range(REQUESTS_PER_USER):
                content_id += 1
                document = TokenSegment(content_id=content_id, length=DOC_TOKENS)
                requests.append(Request(
                    request_id=request_id,
                    user_id=f"tenant{tenant}-user{user}",
                    sequence=TokenSequence([tenant_segment, user_segment, document]),
                    metadata={"tenant": f"tenant{tenant}"},
                ))
                request_id += 1
    return requests


def run_arm(tier_config: KVTiersSpec | None):
    setup = get_hardware_setup("h100")
    spec = prefillonly_engine_spec().with_overrides(kv_capacity_tokens=GPU_KV_TOKENS)
    requests = shared_prefix_trace()
    max_tokens = max(request.num_tokens for request in requests)
    fleet = Fleet.for_setup(
        spec, setup,
        max_input_length=max_tokens,
        num_replicas=NUM_REPLICAS,
        tier_config=tier_config,
        name="tiered" if tier_config is not None else "discard",
    )
    arrivals = MMPPArrivalProcess(
        base_rate=2.0, burst_rate=8.0,
        mean_quiet_seconds=15.0, mean_burst_seconds=5.0, seed=3,
    )
    return simulate_fleet(fleet, arrivals.assign(requests)), fleet


def _compute():
    tier_config = from_dict(KVTiersSpec, {
        "enabled": True,
        "tiers": {"host": {"capacity_gib": 1.0}, "cluster": {"capacity_gib": 16.0}},
        "promotion": "on-nth-hit", "promotion_threshold": 2,
    })
    discard, _ = run_arm(None)
    tiered, fleet = run_arm(tier_config)
    return discard, tiered, fleet


def test_tiered_prefix_cache_vs_suffix_discard(benchmark):
    discard, tiered, fleet = benchmark.pedantic(_compute, rounds=1, iterations=1)

    tiers = tiered.fleet.tiers
    speedup = discard.summary.mean_latency / tiered.summary.mean_latency
    rows = [{
        "arm": "suffix-discard",
        "mean_latency_s": round(discard.summary.mean_latency, 3),
        "p99_latency_s": round(discard.summary.p99_latency, 3),
        "token_hit_rate": round(discard.summary.token_hit_rate, 3),
        "speedup": 1.0,
    }, {
        "arm": "tiered (host+cluster)",
        "mean_latency_s": round(tiered.summary.mean_latency, 3),
        "p99_latency_s": round(tiered.summary.p99_latency, 3),
        "token_hit_rate": round(tiered.summary.token_hit_rate, 3),
        "speedup": round(speedup, 2),
    }]
    show("KV tiers vs suffix discard — equal GPU KV capacity "
         f"({GPU_KV_TOKENS} tokens, {NUM_REPLICAS} replicas)", rows)

    tier_rows = [{
        "gpu_hit_rate": round(tiers.gpu_hit_rate, 3),
        "host_hit_rate": round(tiers.host_hit_rate, 3),
        "cluster_hit_rate": round(tiers.cluster_hit_rate, 3),
        "recompute_rate": round(1.0 - tiers.tier_hit_rate, 3),
        "peer_fetches": tiers.cluster["peer_fetched_blocks"],
        "promoted": tiers.promoted_blocks,
        "demoted": tiers.demoted_blocks,
    }]
    show("Per-tier hit rates (tiered arm)", tier_rows)
    benchmark.extra_info["kv_tiers"] = {"arms": rows, "tiers": tier_rows}

    # Both arms complete the full trace.
    assert discard.num_rejected == 0 and tiered.num_rejected == 0
    assert discard.num_finished == tiered.num_finished

    # Headline: >= 1.3x mean-latency improvement at equal GPU KV capacity.
    assert speedup >= 1.3, (
        f"tiering speedup {speedup:.2f}x below the 1.3x acceptance threshold"
    )

    # The win comes from the hierarchy: tokens that discard recomputes are
    # served from the tiers (directly, or via prefetch that warms L1 from the
    # tiers while a request queues), and the shared cluster store saw
    # cross-replica reuse (blocks one replica published hit on another).
    assert tiered.summary.token_hit_rate > discard.summary.token_hit_rate + 0.1
    assert tiers.host_hit_rate + tiers.cluster_hit_rate > 0.0
    assert tiers.prefetched_blocks > 0
    assert tiers.cluster["fetched_blocks"] > 0
    assert tiers.cluster["peer_fetched_blocks"] > 0
