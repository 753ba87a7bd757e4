"""Fault recovery — tiered warm restore versus cold restart after a crash.

The quantitative case for KV-aware recovery (the acceptance criterion of the
fault subsystem): on a shared-prefix fleet, a crashed replica's hot prefixes
survive in the fleet-shared cluster store, so a rebuilt replica that
warm-restores from L3 serves its first requests from the tiers instead of
recomputing every prefix cold.

Both arms run the *same* GPU KV capacity, replica count, router, arrival
process, and crash/recover schedule — the only difference is whether the
tiered hierarchy (and therefore warm restore) exists.  The benchmark asserts
the acceptance criterion: the tiered arm's warm-restore hit rate is > 0 and
its post-recovery P99 (over requests started after the rejoin) beats the
cold-restart arm's.
"""

from __future__ import annotations

from conftest import PAPER_SCALE, show

from repro.cluster import Fleet
from repro.core.engine import prefillonly_engine_spec
from repro.faults import fault_schedule_from_dict
from repro.hardware.cluster import get_hardware_setup
from repro.simulation.arrival import MMPPArrivalProcess
from repro.simulation.metrics import percentile
from repro.simulation.routing import make_router
from repro.simulation.simulator import simulate_fleet
from repro.spec.core import from_dict
from repro.spec.models import KVTiersSpec
from repro.workloads.trace import Request, TokenSegment, TokenSequence

NUM_REPLICAS = 2
GPU_KV_TOKENS = 4096           # deliberately small: ~ one tenant prefix
TENANT_PREFIX_TOKENS = 3072
USER_PREFIX_TOKENS = 512
DOC_TOKENS = 1024
CRASH_AT = 20.0
RECOVER_AT = 24.0

if PAPER_SCALE:
    NUM_TENANTS, USERS_PER_TENANT, REQUESTS_PER_USER = 4, 8, 10
else:
    NUM_TENANTS, USERS_PER_TENANT, REQUESTS_PER_USER = 3, 4, 8


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
    fleet = Fleet.for_setup(
        spec, setup,
        max_input_length=max(request.num_tokens for request in requests),
        num_replicas=NUM_REPLICAS,
        # Least-loaded so the rebuilt replica actually receives traffic (the
        # sticky routers would leave every existing user on the survivor).
        router=make_router("least-loaded", NUM_REPLICAS),
        tier_config=tier_config,
        name="warm-restore" if tier_config is not None else "cold-restart",
    )
    schedule = fault_schedule_from_dict({
        "warm_restore_blocks": 4096,
        "events": [{"kind": "crash", "replica": 0, "at": CRASH_AT,
                    "recover_at": RECOVER_AT}],
    })
    arrivals = MMPPArrivalProcess(
        base_rate=2.0, burst_rate=8.0,
        mean_quiet_seconds=15.0, mean_burst_seconds=5.0, seed=3,
    )
    return simulate_fleet(fleet, arrivals.assign(requests), faults=schedule)


def post_recovery_p99(result) -> float:
    """P99 latency over the requests that started after the replica rejoined."""
    latencies = [
        record.latency for record in result.finished
        if record.start_time >= RECOVER_AT
    ]
    return percentile(latencies, 99)


def _compute():
    cold = run_arm(None)
    warm = run_arm(from_dict(KVTiersSpec, {
        "enabled": True,
        "tiers": {"host": {"capacity_gib": 1.0}, "cluster": {"capacity_gib": 16.0}},
        "promotion": "on-nth-hit", "promotion_threshold": 2,
    }))
    return cold, warm


def test_tiered_recovery_vs_cold_restart(benchmark):
    cold, warm = benchmark.pedantic(_compute, rounds=1, iterations=1)

    cold_p99 = post_recovery_p99(cold)
    warm_p99 = post_recovery_p99(warm)
    warm_res = warm.fleet.resilience
    rows = [{
        "arm": "cold restart",
        "mean_latency_s": round(cold.summary.mean_latency, 3),
        "post_recovery_p99_s": round(cold_p99, 3),
        "warm_restored_blocks": 0,
        "warm_restore_hit_rate": 0.0,
    }, {
        "arm": "tiered warm restore",
        "mean_latency_s": round(warm.summary.mean_latency, 3),
        "post_recovery_p99_s": round(warm_p99, 3),
        "warm_restored_blocks": warm_res.warm_restored_blocks,
        "warm_restore_hit_rate": round(warm_res.warm_restore_hit_rate, 3),
    }]
    show("Tiered recovery vs cold restart — crash at "
         f"{CRASH_AT:g}s, rejoin at {RECOVER_AT:g}s "
         f"({GPU_KV_TOKENS} GPU KV tokens, {NUM_REPLICAS} replicas)", rows)
    benchmark.extra_info["fault_recovery"] = rows

    # The same fault hit both arms identically.
    cold_res = cold.fleet.resilience
    assert cold_res.num_crashes == warm_res.num_crashes == 1
    assert cold_res.num_recoveries == warm_res.num_recoveries == 1
    assert cold.num_finished == warm.num_finished

    # Acceptance: warm restore happened, was hit, and recovery beat cold
    # restart on post-rejoin tail latency.
    assert warm_res.warm_restored_blocks > 0
    assert warm_res.warm_restore_hit_rate > 0.0
    assert cold_res.warm_restore_hit_rate == 0.0
    assert warm_p99 < cold_p99, (
        f"post-recovery P99 {warm_p99:.3f}s (warm) should beat "
        f"{cold_p99:.3f}s (cold)"
    )
