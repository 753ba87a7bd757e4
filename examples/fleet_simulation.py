#!/usr/bin/env python
"""Fleet simulation: multi-replica serving with routing, shedding, autoscaling.

This example scales the paper's deployment rule (one engine instance per GPU,
user-id routing) up to a fleet:

1. serve a trace with a fixed 4-replica fleet and read the fleet report;
2. protect the fleet from overload with queue-depth admission control;
3. let a reactive autoscaler grow and shrink the fleet with the load.

Run with::

    python examples/fleet_simulation.py
"""

from __future__ import annotations

from repro import (
    Fleet,
    PoissonArrivalProcess,
    get_hardware_setup,
    get_workload,
    prefillonly_engine_spec,
    simulate_fleet,
)
from repro.analysis.reporting import format_fleet_report
from repro.spec.models import AutoscaleSpec


def fixed_fleet() -> None:
    """Step 1: a fixed-size fleet of four replicas."""
    print("=" * 72)
    print("Step 1: four replicas, user-id routing")
    print("=" * 72)

    setup = get_hardware_setup("h100")
    trace = get_workload("post-recommendation", num_users=8, posts_per_user=10)
    fleet = Fleet.for_setup(
        prefillonly_engine_spec(), setup,
        max_input_length=trace.max_request_tokens,
        num_replicas=4,
        name="prefillonly-x4",
    )
    requests = PoissonArrivalProcess(rate=8.0).assign(list(trace.requests))
    result = simulate_fleet(fleet, requests)
    print(format_fleet_report(result))


def shedding_fleet() -> None:
    """Step 2: admission control sheds load the fleet cannot absorb."""
    print()
    print("=" * 72)
    print("Step 2: overload with queue-depth admission control")
    print("=" * 72)

    setup = get_hardware_setup("h100")
    trace = get_workload("post-recommendation", num_users=8, posts_per_user=10)
    fleet = Fleet.for_setup(
        prefillonly_engine_spec(), setup,
        max_input_length=trace.max_request_tokens,
        num_replicas=2,
        max_queue_depth=4,
        name="prefillonly-x2-shedding",
    )
    requests = PoissonArrivalProcess(rate=40.0).assign(list(trace.requests))
    result = simulate_fleet(fleet, requests)
    print(format_fleet_report(result))
    print(f"\nshed {result.num_shed} of {len(requests)} requests "
          "to keep the admitted requests' latency bounded")


def autoscaling_fleet() -> None:
    """Step 3: the autoscaler grows the fleet under load and drains it after."""
    print()
    print("=" * 72)
    print("Step 3: reactive autoscaling")
    print("=" * 72)

    setup = get_hardware_setup("h100")
    trace = get_workload("post-recommendation", num_users=8, posts_per_user=10)
    fleet = Fleet.for_setup(
        prefillonly_engine_spec(), setup,
        max_input_length=trace.max_request_tokens,
        num_replicas=1,
        autoscale=AutoscaleSpec(
            min_replicas=1, max_replicas=4,
            scale_up_rps_per_replica=2.0,
            window_seconds=5.0, cooldown_seconds=5.0,
        ),
        name="prefillonly-autoscaled",
    )
    requests = PoissonArrivalProcess(rate=6.0).assign(list(trace.requests))
    result = simulate_fleet(fleet, requests)
    print(format_fleet_report(result))


def main() -> None:
    fixed_fleet()
    shedding_fleet()
    autoscaling_fleet()


if __name__ == "__main__":
    main()
