"""Resilience policies versus naive retry under chaos — the policy payoff.

The quantitative case for the resilience layer (the acceptance criterion of
``repro.resilience``): on a fleet with a flaky replica — repeated slow-node
windows plus a mid-run crash — the naive baseline keeps routing work onto
the sick node and re-submits crash victims immediately, so stragglers pile
up in the tail.  The policy arm runs the same fleet, workload, and fault
schedule with circuit breakers (slow completions count as failures, so the
router steers around the sick replica), hedged requests (stragglers get a
second chance on a healthy replica, first completion wins), and seeded
backoff retries.

Both arms see the *same* arrivals and the *same* chaos.  The benchmark
asserts the policy arm beats the baseline on SLO goodput (completions within
the latency SLO) and on P99 latency, while hedge waste — tokens burnt on
duplicate copies that lost the race — stays a bounded fraction of the
useful work.
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
from repro.spec.models import ResilienceSpec
from repro.workloads.registry import get_workload

NUM_REPLICAS = 3
SLO_S = 6.0                    # per-request latency SLO the goodput counts
HEDGE_WASTE_CAP = 0.15         # hedge losers may burn <= 15% of useful tokens

#: The paper-scale run offers ~2.4x the requests over a proportionally longer
#: window, so the sick replica stays sick for the whole run (two extra slow
#: windows, a second crash) and the hedge delay tightens to match the
#: higher congestion.
if PAPER_SCALE:
    NUM_USERS, POSTS_PER_USER = 12, 16
    HEDGE_DELAY_S = 4.0
    EXTRA_EVENTS = [
        {"kind": "slow", "replica": 0, "at": 38.0, "duration": 14.0,
         "multiplier": 6.0},
        {"kind": "slow", "replica": 0, "at": 56.0, "duration": 14.0,
         "multiplier": 6.0},
        {"kind": "crash", "replica": 1, "at": 45.0, "recover_at": 48.0},
    ]
else:
    NUM_USERS, POSTS_PER_USER = 8, 10
    HEDGE_DELAY_S = 5.0
    EXTRA_EVENTS = []

#: One sick replica (repeated slow windows) plus clean crash/repairs:
#: exercises breakers, hedges, and retries in a single schedule.
FAULTS = {
    "events": [
        {"kind": "slow", "replica": 0, "at": 2.0, "duration": 14.0,
         "multiplier": 6.0},
        {"kind": "slow", "replica": 0, "at": 20.0, "duration": 14.0,
         "multiplier": 6.0},
        {"kind": "crash", "replica": 1, "at": 10.0, "recover_at": 13.0},
        *EXTRA_EVENTS,
    ],
}

POLICIES = {
    "seed": 17,
    "retry": {"max_attempts": 3, "backoff_base_s": 0.2,
              "backoff_multiplier": 2.0, "jitter": 0.5},
    "hedge": {"delay_s": HEDGE_DELAY_S},
    "breaker": {"window": 12, "failure_ratio": 0.4, "min_samples": 3,
                "cooldown_s": 10.0, "half_open_probes": 2,
                "slow_latency_s": SLO_S},
}


def run_arm(policies: dict | None):
    trace = get_workload("post-recommendation", num_users=NUM_USERS,
                         posts_per_user=POSTS_PER_USER, seed=13)
    fleet = Fleet.for_setup(
        prefillonly_engine_spec(), get_hardware_setup("h100"),
        max_input_length=trace.max_request_tokens,
        num_replicas=NUM_REPLICAS,
        router=make_router("least-loaded", NUM_REPLICAS),
        policies=from_dict(ResilienceSpec, policies) if policies else None,
        name="policies" if policies else "naive-retry",
    )
    arrivals = MMPPArrivalProcess(
        base_rate=2.0, burst_rate=8.0,
        mean_quiet_seconds=10.0, mean_burst_seconds=5.0, seed=5,
    )
    schedule = fault_schedule_from_dict(FAULTS)
    return simulate_fleet(fleet, arrivals.assign(list(trace.requests)),
                          faults=schedule)


def slo_goodput(result) -> float:
    """Fraction of the offered load completed within the latency SLO."""
    offered = result.num_finished + len(result.rejected)
    within = sum(1 for record in result.finished if record.latency <= SLO_S)
    return within / offered if offered else 0.0


def _compute():
    return run_arm(None), run_arm(POLICIES)


def test_resilience_policies_vs_naive_retry(benchmark):
    naive, guarded = benchmark.pedantic(_compute, rounds=1, iterations=1)

    naive_p99 = percentile([r.latency for r in naive.finished], 99)
    guarded_p99 = percentile([r.latency for r in guarded.finished], 99)
    naive_goodput = slo_goodput(naive)
    guarded_goodput = slo_goodput(guarded)
    policy = guarded.fleet.resilience.policy
    useful_tokens = sum(record.num_tokens for record in guarded.finished)
    waste_ratio = (policy["hedge_wasted_tokens"] / useful_tokens
                   if useful_tokens else 0.0)

    rows = [{
        "arm": "naive retry (PR-5 faults only)",
        "slo_goodput": round(naive_goodput, 3),
        "p99_latency_s": round(naive_p99, 3),
        "hedges": 0,
        "breaker_opens": 0,
        "hedge_waste_ratio": 0.0,
    }, {
        "arm": "resilience policies",
        "slo_goodput": round(guarded_goodput, 3),
        "p99_latency_s": round(guarded_p99, 3),
        "hedges": policy["num_hedges"],
        "breaker_opens": policy["num_breaker_opens"],
        "hedge_waste_ratio": round(waste_ratio, 3),
    }]
    show(f"Resilience policies vs naive retry — sick replica + crash, "
         f"SLO {SLO_S:g}s ({NUM_REPLICAS} replicas)", rows)
    benchmark.extra_info["resilience_policies"] = rows

    # The same chaos hit both arms: identical schedule, identical arrivals.
    num_crashes = sum(1 for e in FAULTS["events"] if e["kind"] == "crash")
    num_slow = sum(1 for e in FAULTS["events"] if e["kind"] == "slow")
    assert naive.fleet.resilience.num_crashes == num_crashes
    assert guarded.fleet.resilience.num_crashes == num_crashes
    assert naive.fleet.resilience.num_slow_events == num_slow
    offered = {len(result.finished) + len(result.rejected)
               for result in (naive, guarded)}
    assert len(offered) == 1

    # The policies actually engaged.
    assert policy["num_hedges"] > 0
    assert policy["num_breaker_opens"] > 0

    # Acceptance: better goodput, better tail, bounded hedge waste.
    assert guarded_goodput > naive_goodput, (
        f"SLO goodput {guarded_goodput:.3f} (policies) should beat "
        f"{naive_goodput:.3f} (naive retry)"
    )
    assert guarded_p99 < naive_p99, (
        f"P99 {guarded_p99:.3f}s (policies) should beat {naive_p99:.3f}s "
        f"(naive retry)"
    )
    assert waste_ratio <= HEDGE_WASTE_CAP, (
        f"hedge losers burnt {waste_ratio:.1%} of useful tokens "
        f"(cap {HEDGE_WASTE_CAP:.0%})"
    )
