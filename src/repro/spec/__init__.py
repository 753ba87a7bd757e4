"""repro.spec — the declarative, versioned config-spec layer.

Declare a config format once (:func:`spec_model` + :func:`spec_field`) and
get parsing, normalization, docs tables, and hypothesis fuzzing from the one
declaration.  See :mod:`repro.spec.core` for the engine,
:mod:`repro.spec.models` for the shipped models, and :mod:`repro.spec.fuzz`
for the derived strategies.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.errors": ("SpecError", "SpecVersionError"),
    "repro.spec.core": (
        "MISSING", "FieldInfo", "field_rows", "from_dict", "is_spec_model", "normalize",
        "spec_field", "spec_fields", "spec_model", "to_dict",
    ),
    "repro.spec.models": (
        "FAULT_KINDS", "TIER_NAMES", "AutoscaleSpec", "BrownoutEventSpec", "ClusterTierSpec",
        "CrashEventSpec", "FaultsSpec", "GenerateSpec", "HostTierSpec", "KVTiersSpec",
        "OutageEventSpec", "RecoverEventSpec", "ScenarioModel", "SlowEventSpec", "TenantModel",
        "parse_fault_event",
    ),
})
