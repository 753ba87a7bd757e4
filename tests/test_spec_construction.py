"""A spec model checks its declaration when it is built.

Building an instance of any :func:`~repro.spec.core.spec_model` class, by
hand or through :func:`~repro.spec.core.from_dict`, checks every declared
field (type, finiteness, range, choices, conversion, the ``check`` hook, the
model of a nested block) and then the model's cross-field rules, raising the
model's error class at the value's JSON path.  The arrival processes and the
workload generators are spec models too: a scenario builds each tenant's
generator and arrival process once, at parse time, at the tenant's path.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import (
    ResilienceSpecError,
    ScenarioSpecError,
    TierError,
    TierSpecError,
    UnknownWorkloadError,
    WorkloadError,
    WorkloadSpecError,
)
from repro.simulation.arrival import ARRIVAL_FACTORIES, make_arrival
from repro.simulation.scenario import scenario_from_dict
from repro.spec.core import from_dict, spec_fields
from repro.spec.models import (
    AutoscaleSpec,
    HostTierSpec,
    KVTiersSpec,
    ObservabilitySpec,
    ResilienceSpec,
)
from repro.workloads.registry import WORKLOAD_FACTORIES, get_workload

# ------------------------------------------------------------- hand-built models


def test_a_hand_built_model_is_checked_like_a_parsed_one():
    with pytest.raises(ScenarioSpecError) as excinfo:
        AutoscaleSpec(scale_up_rps_per_replica=0.0, window_seconds=0.0)
    assert excinfo.value.path == "autoscale.scale_up_rps_per_replica"
    with pytest.raises(TierSpecError) as excinfo:
        KVTiersSpec(promotion="sometimes", promotion_threshold=-3)
    assert excinfo.value.path == "kv_tiers.promotion"
    with pytest.raises(TierError, match="finite"):
        HostTierSpec(capacity_gib=math.nan)


def test_a_hand_built_model_runs_its_cross_field_rules():
    with pytest.raises(ScenarioSpecError) as excinfo:
        AutoscaleSpec(min_replicas=3, max_replicas=2, scale_up_rps_per_replica=1.0)
    assert excinfo.value.path == "autoscale.max_replicas"


def test_a_nested_block_must_hold_its_model():
    with pytest.raises(ResilienceSpecError) as excinfo:
        ResilienceSpec(retry={"max_attempts": 2})
    assert excinfo.value.path == "resilience.retry"
    with pytest.raises(TierSpecError) as excinfo:
        KVTiersSpec(tiers={"host": {"capacity_gib": 1.0}})
    assert excinfo.value.path == "kv_tiers.tiers"


def test_a_hand_built_model_converts_like_a_parsed_one():
    built = AutoscaleSpec(scale_up_rps_per_replica=2, window_seconds=10)
    assert built == from_dict(AutoscaleSpec, {"scale_up_rps_per_replica": 2,
                                              "window_seconds": 10})
    assert type(built.scale_up_rps_per_replica) is float


def test_a_scenario_needs_a_tenant():
    with pytest.raises(ScenarioSpecError) as excinfo:
        scenario_from_dict({"name": "empty", "tenants": []})
    assert excinfo.value.path == "tenants"


@pytest.mark.parametrize("edges, index", [
    ([0.5, math.nan, math.inf], 1),
    ([math.inf], 0),
])
def test_latency_bucket_edges_are_positive_and_finite(edges, index):
    """NaN passed the ``<= 0`` test and the strictly-increasing check."""
    with pytest.raises(ScenarioSpecError) as excinfo:
        from_dict(ObservabilitySpec, {"latency_buckets": edges})
    assert excinfo.value.path == f"observability.latency_buckets[{index}]"


# ------------------------------------------ arrival processes and generators

#: Valid values of every factory's required fields.
REQUIRED = {
    "poisson": {"rate": 2.0},
    "burst": {},
    "uniform": {"rate": 2.0},
    "mmpp": {"base_rate": 1.0, "burst_rate": 4.0},
    "diurnal": {"mean_rate": 2.0},
    "flash-crowd": {"base_rate": 1.0, "spike_rate": 4.0},
    "closed-loop": {"num_clients": 2},
    "post-recommendation": {},
    "credit-verification": {},
}
FACTORIES = {**ARRIVAL_FACTORIES, **WORKLOAD_FACTORIES}


def _bad_values(info) -> list:
    """Values each declared field must refuse."""
    values = [math.nan, math.inf, -math.inf, "x"]
    if bool not in info.types:
        values.append(True)
    if float not in info.types:
        values.append(2.5)
    if info.minimum is not None:
        values.append(info.minimum if info.exclusive_minimum else info.minimum - 1)
    return values


FIELD_CASES = [
    (name, field, value)
    for name, factory in FACTORIES.items()
    for field, info in spec_fields(factory).items()
    for value in _bad_values(info)
]


@pytest.mark.parametrize("name, field, value", FIELD_CASES,
                         ids=[f"{n}-{f}-{v!r}" for n, f, v in FIELD_CASES])
def test_every_declared_parameter_refuses_a_bad_value(name, field, value):
    factory = FACTORIES[name]
    base = "arrival_params" if name in ARRIVAL_FACTORIES else "workload_params"
    with pytest.raises(WorkloadSpecError) as excinfo:
        factory(**{**REQUIRED[name], field: value})
    assert excinfo.value.path == f"{base}.{field}"
    assert isinstance(excinfo.value, WorkloadError)


@pytest.mark.parametrize("name, params, field", [
    ("mmpp", {"base_rate": 4.0, "burst_rate": 4.0}, "burst_rate"),
    ("flash-crowd", {"base_rate": 4.0, "spike_rate": 2.0}, "spike_rate"),
    ("flash-crowd", {"base_rate": 1.0, "spike_rate": 4.0, "spike_seconds": 5.0,
                     "spike_interval_seconds": 5.0}, "spike_interval_seconds"),
    ("diurnal", {"mean_rate": 2.0, "amplitude": 1.0}, "amplitude"),
    ("post-recommendation", {"profile_min_tokens": 5, "profile_max_tokens": 4},
     "profile_min_tokens"),
    ("credit-verification", {"month_min_tokens": 5, "month_max_tokens": 4},
     "month_min_tokens"),
], ids=["mmpp-burst", "flash-spike", "flash-interval", "diurnal-amplitude",
        "post-profile-range", "credit-month-range"])
def test_cross_field_rules_run_on_construction(name, params, field):
    base = "arrival_params" if name in ARRIVAL_FACTORIES else "workload_params"
    with pytest.raises(WorkloadSpecError) as excinfo:
        FACTORIES[name](**params)
    assert excinfo.value.path == f"{base}.{field}"


def test_get_workload_reports_an_unknown_parameter_at_its_path():
    """It raised a bare ``TypeError``."""
    with pytest.raises(WorkloadSpecError) as excinfo:
        get_workload("post-recommendation", bogus=1)
    assert excinfo.value.path == "workload_params.bogus"
    assert "accepted: num_users, posts_per_user" in str(excinfo.value)


def test_make_arrival_reports_an_unknown_parameter_at_its_path():
    """It raised a path-less ``WorkloadError`` made from a ``TypeError``."""
    with pytest.raises(WorkloadSpecError) as excinfo:
        make_arrival("poisson", rate=1.0, bogus=1)
    assert excinfo.value.path == "arrival_params.bogus"
    assert "unknown keys ['bogus']; accepted: rate, seed, shuffle" in str(excinfo.value)


def _scenario(arrival_params: dict, arrival: str = "poisson", **tenant) -> dict:
    return {
        "name": "s",
        "tenants": [{
            "name": "t", "workload": "post-recommendation",
            "workload_params": {"num_users": 2, "posts_per_user": 2},
            "arrival": arrival, "arrival_params": arrival_params, **tenant,
        }],
    }


@pytest.mark.parametrize("arrival, params, key", [
    ("poisson", {"rate": 2.0, "seed": -3}, "seed"),
    ("closed-loop", {"num_clients": 2.5}, "num_clients"),
    ("poisson", {"rate": "fast"}, "rate"),
    ("diurnal", {"mean_rate": 2.0, "period_seconds": True}, "period_seconds"),
    ("poisson", {"rate": 2.0, "burst_rate": 3.0}, "burst_rate"),
], ids=["negative-seed", "fractional-clients", "string-rate", "boolean-period",
        "unknown-key"])
def test_arrival_params_are_checked_at_parse_time(arrival, params, key):
    with pytest.raises(WorkloadSpecError) as excinfo:
        scenario_from_dict(_scenario(params, arrival))
    assert excinfo.value.path == f"tenants[0].arrival_params.{key}"


def _two_tenants_named_a() -> dict:
    config = _scenario({"rate": 2.0}, name="a")
    config["tenants"].append({**config["tenants"][0], "arrival_params": {"rate": 1.0}})
    return config


@pytest.mark.parametrize("config, error, path", [
    (_scenario({"base_rate": 5, "burst_rate": 1}, "mmpp"), WorkloadSpecError,
     "tenants[0].arrival_params.burst_rate"),
    (_scenario({"rate": 2.0}, workload_params={"profile_min_tokens": 20000,
                                               "profile_max_tokens": 100}),
     WorkloadSpecError, "tenants[0].workload_params.profile_min_tokens"),
    (_scenario({"rate": 2.0}, workload="nope"), UnknownWorkloadError, None),
    (_scenario({"rate": -1}), WorkloadSpecError, "tenants[0].arrival_params.rate"),
    (_two_tenants_named_a(), ScenarioSpecError, "tenants[1].name"),
], ids=["mmpp-burst-below-base", "profile-range", "unknown-workload",
        "negative-rate", "repeated-tenant-name"])
def test_a_tenant_is_refused_at_parse_time(config, error, path):
    """Each parsed and then failed inside ``run_scenario``, the cross-field
    rules at the model's own path or with no path at all."""
    with pytest.raises(error) as excinfo:
        scenario_from_dict(config)
    assert getattr(excinfo.value, "path", None) == path
