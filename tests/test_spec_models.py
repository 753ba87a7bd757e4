"""Properties of the spec models themselves.

* The round-trip law ``to_dict(from_dict(x)) == normalize(x)`` for every
  documented model, over hypothesis-generated valid configs — ``from_dict``
  and ``normalize`` are two independent walks over the same declarations, so
  this genuinely cross-checks them against each other.
* Version-field handling: explicit supported versions parse, unsupported
  future versions raise :class:`SpecVersionError` naming what is supported,
  and non-integer versions raise the model's own error class.
* Pins tying spec-layer literals to the runtime registries they mirror, so
  the two cannot drift apart silently.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    FaultScheduleError,
    ScenarioSpecError,
    SpecError,
    SpecVersionError,
    TierSpecError,
)
from repro.faults.schedule import DEFAULT_WARM_RESTORE_BLOCKS
from repro.spec.core import from_dict, normalize, spec_fields, to_dict
from repro.spec.fuzz import (
    alert_rule_configs,
    degrade_configs,
    fault_configs,
    kv_tiers_configs,
    model_strategy,
    observability_configs,
    resilience_configs,
    scenario_configs,
    spot_preempt_configs,
    tenant_configs,
)
from repro.spec.models import (
    _EVENT_MODELS,
    DOCUMENTED_MODELS,
    FAULT_KINDS,
    TIER_NAMES,
    AlertRuleSpec,
    AutoscaleSpec,
    BreakerSpec,
    BrownoutEventSpec,
    ClusterTierSpec,
    CrashEventSpec,
    DeadlineSpec,
    DegradationSpec,
    FaultsSpec,
    GenerateSpec,
    HedgeSpec,
    HostTierSpec,
    KVTiersSpec,
    ObservabilitySpec,
    OutageEventSpec,
    RecoverEventSpec,
    ResilienceSpec,
    RetrySpec,
    ScenarioModel,
    SlowEventSpec,
    SpotPreemptEventSpec,
    TenantModel,
)

property_settings = settings(
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)


@st.composite
def crash_event_dicts(draw):
    """Valid crash events — ``recover_at`` strictly after ``at``."""
    event = {
        "kind": "crash",
        "replica": draw(st.integers(0, 3)),
        "at": draw(st.floats(0.0, 60.0, allow_nan=False).map(lambda v: round(v, 3))),
    }
    if draw(st.booleans()):
        delta = draw(st.floats(0.5, 60.0, allow_nan=False).map(lambda v: round(v, 3)))
        event["recover_at"] = round(event["at"] + delta, 3)
    return event


# A valid-config strategy for every documented model.  Models with
# independent fields use the generic derivation; the rest use the hand-built
# composites the scenario fuzzer runs on.
MODEL_STRATEGIES = {
    HostTierSpec: model_strategy(HostTierSpec),
    ClusterTierSpec: model_strategy(ClusterTierSpec),
    KVTiersSpec: kv_tiers_configs(),
    CrashEventSpec: crash_event_dicts(),
    RecoverEventSpec: model_strategy(RecoverEventSpec),
    SlowEventSpec: model_strategy(SlowEventSpec),
    BrownoutEventSpec: model_strategy(BrownoutEventSpec),
    OutageEventSpec: model_strategy(OutageEventSpec),
    SpotPreemptEventSpec: spot_preempt_configs(replicas=4),
    GenerateSpec: model_strategy(GenerateSpec),
    FaultsSpec: fault_configs(replicas=4),
    AutoscaleSpec: model_strategy(AutoscaleSpec),
    ObservabilitySpec: observability_configs(),
    AlertRuleSpec: alert_rule_configs(),
    DeadlineSpec: model_strategy(DeadlineSpec),
    RetrySpec: model_strategy(RetrySpec),
    HedgeSpec: model_strategy(HedgeSpec),
    BreakerSpec: model_strategy(BreakerSpec),
    DegradationSpec: degrade_configs(tenant_names=("tenant-a", "tenant-b")),
    ResilienceSpec: resilience_configs(tenant_names=("tenant-a", "tenant-b")),
    TenantModel: tenant_configs(name="tenant-a"),
    ScenarioModel: scenario_configs(),
}


def test_every_documented_model_has_a_strategy():
    assert set(MODEL_STRATEGIES) == set(DOCUMENTED_MODELS)


@pytest.mark.parametrize("cls", DOCUMENTED_MODELS, ids=lambda cls: cls.__name__)
@property_settings
@given(data=st.data())
def test_roundtrip_law(cls, data):
    """to_dict(from_dict(x)) == normalize(x), and the normalized form is a
    fixed point: reparsing it yields an equal model and identical dict."""
    config = data.draw(MODEL_STRATEGIES[cls])
    model = from_dict(cls, config)
    normalized = to_dict(model)
    assert normalized == normalize(cls, config)

    reparsed = from_dict(cls, json.loads(json.dumps(normalized)))
    assert reparsed == model
    assert to_dict(reparsed) == normalized


@pytest.mark.parametrize("cls", DOCUMENTED_MODELS, ids=lambda cls: cls.__name__)
@property_settings
@given(data=st.data())
def test_explicit_supported_version_is_accepted(cls, data):
    config = dict(data.draw(MODEL_STRATEGIES[cls]))
    config["version"] = 1
    model = from_dict(cls, config)
    if "version" in spec_fields(cls):
        assert to_dict(model)["version"] == 1


def _minimal_scenario() -> dict:
    return {
        "name": "s",
        "tenants": [{
            "name": "t", "workload": "post-recommendation",
            "workload_params": {"num_users": 2, "posts_per_user": 2},
            "arrival": "poisson", "arrival_params": {"rate": 4.0},
        }],
    }


def test_unsupported_future_version_names_supported_versions():
    config = _minimal_scenario()
    config["version"] = 99
    with pytest.raises(SpecVersionError) as excinfo:
        from_dict(ScenarioModel, config)
    assert excinfo.value.path == "version"
    assert "99" in str(excinfo.value)
    assert "1" in str(excinfo.value)


def test_unsupported_version_in_nested_block_carries_its_path():
    config = _minimal_scenario()
    config["kv_tiers"] = {"version": 7}
    with pytest.raises(SpecVersionError) as excinfo:
        from_dict(ScenarioModel, config)
    assert excinfo.value.path == "kv_tiers.version"

    with pytest.raises(SpecVersionError) as excinfo:
        from_dict(FaultsSpec, {"version": 2}, path="faults")
    assert excinfo.value.path == "faults.version"


def test_non_integer_version_raises_the_model_error():
    with pytest.raises(TierSpecError, match="version must be an integer"):
        from_dict(KVTiersSpec, {"version": "1"})
    with pytest.raises(FaultScheduleError, match="version must be an integer"):
        from_dict(FaultsSpec, {"version": 1.0})
    with pytest.raises(ScenarioSpecError, match="version must be an integer"):
        config = _minimal_scenario()
        config["version"] = True
        from_dict(ScenarioModel, config)


def test_spec_error_formats_path_prefix():
    plain = SpecError("bad value")
    assert plain.path == ""
    assert str(plain) == "bad value"
    pathed = SpecError("bad value", path="kv_tiers.tiers.host")
    assert pathed.path == "kv_tiers.tiers.host"
    assert str(pathed) == "kv_tiers.tiers.host: bad value"


def test_spec_literals_match_runtime_registries():
    """The spec layer duplicates a few runtime name sets as literals (so the
    models stay import-light); pin them to the registries they mirror."""
    assert set(_EVENT_MODELS) == set(FAULT_KINDS)
    assert spec_fields(FaultsSpec)["warm_restore_blocks"].default \
        == DEFAULT_WARM_RESTORE_BLOCKS
    from repro.kvcache.tiers import TIER_NAMES as RUNTIME_TIER_NAMES
    assert TIER_NAMES == RUNTIME_TIER_NAMES
    assert set(spec_fields(KVTiersSpec)["tiers"].key_models) == set(TIER_NAMES)
