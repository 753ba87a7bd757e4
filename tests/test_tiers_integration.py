"""Integration tests for the tiered prefix cache: fleet, scenario, scheduler.

Includes the equivalence pin required by the subsystem's acceptance criteria:
with tiering disabled (a default-off ``kv_tiers`` block), ``simulate_fleet``
and every cookbook scenario produce summaries identical to a configuration
that omits tiering entirely.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster import Fleet
from repro.core.engine import prefillonly_engine_spec
from repro.errors import UnknownTierError
from repro.simulation.arrival import PoissonArrivalProcess, UniformArrivalProcess
from repro.simulation.scenario import load_scenario, run_scenario, scenario_from_dict
from repro.simulation.simulator import simulate_fleet
from repro.spec.core import from_dict
from repro.spec.models import AutoscaleSpec, KVTiersSpec
from repro.workloads.registry import get_workload

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


@pytest.fixture(scope="module")
def tiny_trace():
    return get_workload("post-recommendation", num_users=4, posts_per_user=6, seed=7)


def tiered_fleet(setup, trace, *, num_replicas=2, spec=None, **tier_kwargs):
    config = from_dict(KVTiersSpec, {
        "enabled": True,
        "tiers": {"host": {"capacity_gib": 2.0}, "cluster": {"capacity_gib": 8.0}},
        **tier_kwargs,
    })
    return Fleet.for_setup(
        spec if spec is not None else prefillonly_engine_spec(), setup,
        max_input_length=trace.max_request_tokens,
        num_replicas=num_replicas, tier_config=config,
    )


# ------------------------------------------------------------- equivalence


def test_disabled_tiers_fleet_is_byte_identical(h100_setup, tiny_trace):
    """A default-off tier config must not change a single fleet metric."""
    def run(tier_config):
        fleet = Fleet.for_setup(
            prefillonly_engine_spec(), h100_setup,
            max_input_length=tiny_trace.max_request_tokens,
            num_replicas=2, tier_config=tier_config,
        )
        requests = UniformArrivalProcess(rate=3.0).assign(list(tiny_trace.requests))
        return simulate_fleet(fleet, requests)

    plain = run(None)
    disabled = run(from_dict(KVTiersSpec, {"enabled": False}))
    key = lambda record: record.request_id  # noqa: E731
    assert sorted(disabled.finished, key=key) == sorted(plain.finished, key=key)
    assert disabled.summary == plain.summary
    assert disabled.fleet == plain.fleet
    assert disabled.fleet.as_dict() == plain.fleet.as_dict()
    assert disabled.cache_stats == plain.cache_stats


@pytest.mark.parametrize(
    "config_path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem
)
def test_scenario_summaries_identical_with_default_off_tiers(config_path):
    """Adding ``"kv_tiers": {"enabled": false}`` changes nothing, per config."""
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config.pop("kv_tiers", None)  # the tiered cookbook config: compare both off
    baseline = run_scenario(scenario_from_dict(json.loads(json.dumps(config))))
    config["kv_tiers"] = {"enabled": False}
    disabled = run_scenario(scenario_from_dict(config))
    assert disabled.result.summary == baseline.result.summary
    assert disabled.result.fleet == baseline.result.fleet
    assert [t.as_dict() for t in disabled.tenants] == [
        t.as_dict() for t in baseline.tenants
    ]


def test_tiered_cookbook_scenario_runs_with_tier_accounting():
    spec = load_scenario(SCENARIO_DIR / "tiered_shared_prefix.json")
    assert spec.kv_tiers is not None and spec.kv_tiers.enabled
    result = run_scenario(spec)
    tiers = result.result.fleet.tiers
    assert tiers is not None
    assert tiers.tokens_total > 0
    assert tiers.cluster is not None


# ------------------------------------------------------------ fleet serving


def test_tiered_fleet_completes_and_reports(h100_setup, tiny_trace):
    fleet = tiered_fleet(h100_setup, tiny_trace)
    requests = PoissonArrivalProcess(rate=5.0, seed=1).assign(list(tiny_trace.requests))
    result = simulate_fleet(fleet, requests)
    assert result.num_finished == len(tiny_trace)
    tiers = result.fleet.tiers
    assert tiers is not None
    assert tiers.tokens_total == sum(r.num_tokens for r in tiny_trace.requests)
    assert 0.0 <= tiers.tier_hit_rate <= 1.0
    # The summary's offload view reflects the host tier (satellite: offload
    # activity visible in fleet reports).
    assert result.fleet.offload is not None
    row = result.fleet.as_dict()
    assert "tier_hit_rate" in row and "offload_stored" in row


def test_tiered_fleet_report_has_tier_sections(h100_setup, tiny_trace):
    from repro.analysis.reporting import format_fleet_report

    fleet = tiered_fleet(h100_setup, tiny_trace)
    requests = UniformArrivalProcess(rate=3.0).assign(list(tiny_trace.requests))
    report = format_fleet_report(simulate_fleet(fleet, requests))
    assert "KV tiers: per-tier hits" in report
    assert "cluster (L3)" in report
    assert "CPU offload store" in report


def test_offload_engine_activity_visible_in_fleet_report(h100_setup, tiny_trace):
    """Satellite: the flat offload store's counters reach the fleet summary."""
    from repro.analysis.reporting import format_fleet_report

    spec = prefillonly_engine_spec(cpu_offload_gib=2.0).with_overrides(
        kv_capacity_tokens=2048
    )
    fleet = Fleet.for_setup(
        spec, h100_setup,
        max_input_length=tiny_trace.max_request_tokens, num_replicas=2,
    )
    requests = UniformArrivalProcess(rate=3.0).assign(list(tiny_trace.requests))
    result = simulate_fleet(fleet, requests)
    assert result.fleet.offload is not None
    assert result.fleet.offload["stored_blocks"] > 0
    assert "offload_stored" in result.fleet.as_dict()
    assert "CPU offload store (fleet aggregate)" in format_fleet_report(result)


def test_scale_down_drains_prefixes_into_cluster_store(h100_setup, tiny_trace):
    """A retiring replica's cached prefixes land in the shared store."""
    fleet = tiered_fleet(h100_setup, tiny_trace, num_replicas=3)
    requests = UniformArrivalProcess(rate=50.0).assign(list(tiny_trace.requests))
    for request in requests:
        fleet.submit(request, request.arrival_time)
    while fleet.next_event_time() is not None:
        fleet.advance_to(fleet.next_event_time())
    # Replica 2 (user-id routing, 4 users over 3 replicas) has served and
    # cached prefixes; scaling down must drain them into the shared store.
    assert fleet.replicas[2].kv.num_cached_tokens > 0
    fleet.scale_down(now=100.0, reason="test")
    while fleet.next_event_time() is not None:
        fleet.advance_to(fleet.next_event_time())
    assert len(fleet.finished_requests()) == len(requests)
    # The drained replica retired with no orphaned lease and published its tree.
    retired = fleet._retired
    assert retired, "expected the drained replica to retire"
    for state in retired:
        assert state.instance.kv.num_active_leases == 0
        assert state.instance.kv.num_cached_tokens >= 0
    assert fleet.cluster_store is not None
    assert fleet.cluster_store.stats.publishes_by_replica.get(
        retired[0].instance.name, 0
    ) > 0


def test_autoscaled_replica_joins_shared_cluster_store(h100_setup, tiny_trace):
    autoscale = from_dict(AutoscaleSpec, {
        "min_replicas": 1, "max_replicas": 3,
        "scale_up_rps_per_replica": 1.5,
        "window_seconds": 2.0, "cooldown_seconds": 3.0,
    })
    config = from_dict(KVTiersSpec, {"enabled": True, "tiers": {
        "host": {"capacity_gib": 2.0}, "cluster": {"capacity_gib": 8.0},
    }})
    fleet = Fleet.for_setup(
        prefillonly_engine_spec(), h100_setup,
        max_input_length=tiny_trace.max_request_tokens,
        num_replicas=1, autoscale=autoscale, tier_config=config,
    )
    requests = UniformArrivalProcess(rate=4.0).assign(list(tiny_trace.requests))
    result = simulate_fleet(fleet, requests)
    assert fleet.stats.num_scale_ups >= 1
    assert result.num_finished == len(tiny_trace)
    # Every replica (including clones) shares the one cluster store.
    for replica in fleet.replicas:
        assert replica.kv.tiers is not None
        assert replica.kv.tiers.cluster is fleet.cluster_store


# -------------------------------------------------------- scheduler / errors


def test_srjf_calibration_credits_tier_resident_prefixes(h100_setup, tiny_trace):
    """A host-resident prefix must rank between a GPU hit and a full miss."""
    from repro.core.engine import EngineInstance
    from repro.core.jct import JCTEstimator
    from repro.core.request_state import EngineRequest

    spec = prefillonly_engine_spec().with_overrides(kv_capacity_tokens=2048)
    config = from_dict(KVTiersSpec, {
        "enabled": True, "promotion": "never", "prefetch": False,
        "tiers": {"host": {"capacity_gib": 4.0}, "cluster": {"capacity_gib": 0.0}},
    })
    from repro.model.config import get_model
    instance = EngineInstance(
        spec, get_model(h100_setup.model_name), h100_setup.cluster.gpu,
        max_input_length=tiny_trace.max_request_tokens,
        tier_config=config,
    )
    # Serve one request so its suffix demotes into the host tier.
    first = tiny_trace.requests[0]
    instance.submit(first, 0.0)
    instance.advance_to(0.0)
    instance.drain_until()
    kv = instance.kv
    hashes = first.block_hashes(spec.kv_block_size)
    lookup = kv.lookup_with_tiers(hashes)
    assert lookup.host_tokens > 0

    scheduler = instance.scheduler
    seen = EngineRequest(request=first, block_hashes=hashes, enqueue_time=10.0)
    cached, seen_score, _ = scheduler._index(seen, kv)
    assert cached == lookup.total_tokens

    fresh = next(
        r for r in tiny_trace.requests
        if r.user_id != first.user_id and r.num_tokens >= first.num_tokens
    )
    miss = EngineRequest(
        request=fresh, block_hashes=fresh.block_hashes(spec.kv_block_size),
        enqueue_time=10.0,
    )
    _, miss_score, _ = scheduler._index(miss, kv)
    # Tier-resident prefix -> strictly better (lower) score than a full miss,
    # but worse than if the same tokens sat on the GPU (the transfer penalty).
    assert seen_score < miss_score
    pure_gpu_score = JCTEstimator.proxy(first.num_tokens, cached)
    assert seen_score > pure_gpu_score


def test_scenario_config_unknown_tier_name_fails_with_path():
    config = {
        "name": "bad", "seed": 0,
        "kv_tiers": {"enabled": True, "tiers": {"gpu": {"capacity_gib": 1}}},
        "tenants": [{"name": "t", "workload": "post-recommendation",
                     "arrival": "poisson", "arrival_params": {"rate": 1.0}}],
    }
    with pytest.raises(UnknownTierError) as excinfo:
        scenario_from_dict(config)
    assert "kv_tiers.tiers" in str(excinfo.value)
    assert "host" in str(excinfo.value) and "cluster" in str(excinfo.value)
