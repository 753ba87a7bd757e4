"""Hypothesis strategies for *valid* configs, derived from the spec models.

Two layers:

* :func:`field_strategy` / :func:`model_strategy` — generic derivation from
  the :func:`~repro.spec.core.spec_field` declarations (``fuzz`` bounds,
  ``choices``, types), usable for any model whose fields are independent;
* :func:`scenario_configs` — the composite the scenario fuzzer runs on:
  whole random scenario documents (arrivals × tenants × kv_tiers × faults ×
  fleet shapes × shard counts) that are *valid by construction*, including
  the cross-field rules a generic derivation cannot know (``recover_at``
  after ``at``, overlap-free fault windows, workload-specific parameter
  names);
* the **config-pair mutators** (:func:`capacity_pair_configs`,
  :func:`admission_pair_configs`, :func:`interconnect_pair_configs`) — each
  draws a ``(base, better)`` pair of scenario documents identical except for
  one resource knob turned strictly in the favourable direction, for the
  metamorphic relations ``tests/test_metamorphic.py`` checks (more replicas
  never lower goodput, a deeper admission queue never sheds more, a faster
  interconnect never raises mean latency).  The pairs draw from a restricted
  family — no faults, no autoscaler, a fixed router per relation — because
  the relations are monotonicity claims about *resources*, and adaptive
  control loops may legitimately trade the measured metric for another.

Everything generated here must simulate in milliseconds: tenant sizes,
arrival rates, and fault horizons are deliberately tiny so CI can push
hundreds of scenarios through the full fleet simulator per run (see
``tests/test_scenario_fuzz.py`` and ``make fuzz``).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.spec.core import FieldInfo, spec_fields
from repro.spec.models import (
    AlertRuleSpec,
    AutoscaleSpec,
    BreakerSpec,
    DeadlineSpec,
    GenerateSpec,
    HedgeSpec,
    KVTiersSpec,
    ObservabilitySpec,
    RetrySpec,
)

__all__ = [
    "field_strategy",
    "model_strategy",
    "kv_tiers_configs",
    "autoscale_configs",
    "alert_rule_configs",
    "observability_configs",
    "fault_configs",
    "spot_preempt_configs",
    "degrade_configs",
    "resilience_configs",
    "tenant_configs",
    "scenario_configs",
    "capacity_pair_configs",
    "admission_pair_configs",
    "interconnect_pair_configs",
    "deadline_pair_configs",
    "hedge_pair_configs",
    "breaker_toggle_configs",
]

#: Number of decimal places generated floats are rounded to — keeps failing
#: examples short enough to paste into a scenario JSON for replay.
_FLOAT_PLACES = 3


def _bounded_floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False).map(
        lambda value: round(value, _FLOAT_PLACES)
    )


def field_strategy(info: FieldInfo):
    """Derive a strategy for one field from its declaration, or None.

    Uses the declared ``fuzz`` bounds when present (a ``(lo, hi)`` numeric
    tuple, or a tuple of strings to sample from), falling back to ``choices``
    and plain booleans.  Fields a generic derivation cannot handle (nested
    models, polymorphic lists) return None and are composed by hand.
    """
    if info.fuzz is not None:
        if all(isinstance(value, str) for value in info.fuzz):
            return st.sampled_from(info.fuzz)
        lo, hi = info.fuzz
        if int in info.types and float not in info.types:
            return st.integers(int(lo), int(hi))
        return _bounded_floats(float(lo), float(hi))
    if info.choices is not None:
        return st.sampled_from(info.choices)
    if info.types == (bool,):
        return st.booleans()
    return None


def model_strategy(cls, *, required_only: bool = False, **overrides):
    """A dict strategy for a spec model with independent fields.

    Required fields always appear; optional ones appear or not (hypothesis
    explores both, so defaulting paths get fuzzed too).  Fields without a
    derivable strategy are skipped unless supplied via ``overrides``.

    Args:
        cls: The spec-model class.
        required_only: Only emit required keys (smallest valid config).
        **overrides: Per-field strategy (or omit a field with ``None``).
    """
    mandatory: dict = {}
    optional: dict = {}
    for name, info in spec_fields(cls).items():
        if name in overrides:
            strategy = overrides[name]
        else:
            strategy = field_strategy(info)
        if strategy is None:
            continue
        if info.required:
            mandatory[name] = strategy
        elif not required_only:
            optional[name] = strategy
    return st.fixed_dictionaries(mandatory, optional=optional)


def kv_tiers_configs():
    """Random valid ``"kv_tiers"`` blocks (always enabled — a disabled block
    is byte-identical to omission, which the scenario composite already
    covers by omitting the key)."""
    tier_models = spec_fields(KVTiersSpec)["tiers"].key_models
    tier_entries = st.fixed_dictionaries({}, optional={
        name: model_strategy(model) for name, model in tier_models.items()
    })
    return model_strategy(
        KVTiersSpec,
        enabled=st.just(True),
        tiers=tier_entries,
        demote_on_evict=st.booleans(),
        prefetch=st.booleans(),
        promotion=st.sampled_from(spec_fields(KVTiersSpec)["promotion"].choices),
    )


def autoscale_configs():
    """Random valid ``"autoscale"`` blocks (max >= min by construction)."""
    return model_strategy(AutoscaleSpec)


def alert_rule_configs(*, name: str = "rule-0"):
    """Random valid ``observability.alerts[]`` rules.

    ``short_window_s < long_window_s`` holds by construction: the short
    draw's ceiling (4) and the *default* short (6) both sit below the long
    draw's floor (7), and the default long (30) sits above the short draw's
    ceiling — so any appear/omit combination is valid.  No ``tenant`` pin —
    tenant names aren't known at this level, and a tenant-less rule applies
    to every SLO tenant.
    """
    return model_strategy(
        AlertRuleSpec,
        name=st.just(name),
        long_window_s=_bounded_floats(7.0, 60.0),
        short_window_s=_bounded_floats(0.5, 4.0),
    )


@st.composite
def observability_configs(draw):
    """Random valid ``"observability"`` blocks (always enabled — a disabled
    block is byte-identical to omission, which the scenario composite covers
    by omitting the key).  Custom bucket lists are strictly increasing by
    construction (sorted unique positive floats)."""
    config: dict = draw(model_strategy(ObservabilitySpec, enabled=st.just(True)))
    if draw(st.booleans()):
        config["latency_buckets"] = sorted(draw(st.lists(
            _bounded_floats(0.05, 30.0), min_size=1, max_size=5, unique=True,
        )))
    if draw(st.booleans()):
        config["alerts"] = [
            draw(alert_rule_configs(name=f"rule-{index}"))
            for index in range(draw(st.integers(1, 2)))
        ]
    return config


@st.composite
def fault_configs(draw, *, replicas: int):
    """Random valid ``"faults"`` blocks for a fleet of ``replicas`` replicas.

    Cross-field rules hold by construction: ``recover_at`` strictly after
    ``at``, and at most one window per (kind, replica) so same-kind windows
    can never overlap.
    """
    events: list[dict] = []
    for _ in range(draw(st.integers(0, 2))):
        replica = draw(st.integers(0, replicas - 1))
        at = draw(_bounded_floats(0.0, 30.0))
        event = {"kind": "crash", "replica": replica, "at": at}
        if draw(st.booleans()):
            event["recover_at"] = round(at + draw(_bounded_floats(0.5, 30.0)), _FLOAT_PLACES)
        events.append(event)
    for replica in range(replicas):
        if draw(st.booleans()):
            continue
        events.append({
            "kind": "slow", "replica": replica,
            "at": draw(_bounded_floats(0.0, 20.0)),
            "duration": draw(_bounded_floats(1.0, 20.0)),
            "multiplier": draw(_bounded_floats(1.2, 6.0)),
        })
    if draw(st.booleans()):
        events.append({
            "kind": "brownout",
            "at": draw(_bounded_floats(0.0, 20.0)),
            "duration": draw(_bounded_floats(1.0, 20.0)),
            "multiplier": draw(_bounded_floats(1.2, 6.0)),
        })
    if draw(st.booleans()):
        events.append({
            "kind": "outage",
            "at": draw(_bounded_floats(0.0, 20.0)),
            "duration": draw(_bounded_floats(1.0, 20.0)),
        })
    if draw(st.booleans()):
        events.append(draw(spot_preempt_configs(replicas=replicas)))
    config: dict = {"enabled": True, "events": events}
    if draw(st.booleans()):
        config["warm_restore_blocks"] = draw(st.integers(0, 128))
    if draw(st.booleans()):
        config["generate"] = draw(model_strategy(
            GenerateSpec,
            mtbf_s=_bounded_floats(20.0, 120.0),
            mttr_s=_bounded_floats(2.0, 20.0),
            horizon_s=_bounded_floats(10.0, 60.0),
            replicas=None,  # inherit the scenario's replica count
        ))
    return config


@st.composite
def spot_preempt_configs(draw, *, replicas: int):
    """One valid spot-preemption event — ``recover_at`` strictly after the
    kill at ``at + warning_s`` by construction."""
    event: dict = {
        "kind": "spot_preempt",
        "replica": draw(st.integers(0, replicas - 1)),
        "at": draw(_bounded_floats(0.0, 20.0)),
        "warning_s": draw(_bounded_floats(0.5, 10.0)),
    }
    if draw(st.booleans()):
        event["recover_at"] = round(
            event["at"] + event["warning_s"] + draw(_bounded_floats(0.5, 20.0)),
            _FLOAT_PLACES,
        )
    return event


@st.composite
def degrade_configs(draw, *, tenant_names: tuple = ()):
    """Random valid ``"degrade"`` blocks — ``shed_depth_per_replica`` at or
    above ``depth_per_replica`` by construction."""
    config: dict = {"depth_per_replica": draw(_bounded_floats(1.0, 16.0))}
    if draw(st.booleans()):
        config["shed_depth_per_replica"] = round(
            config["depth_per_replica"] + draw(_bounded_floats(0.0, 16.0)),
            _FLOAT_PLACES,
        )
    if draw(st.booleans()):
        config["sustain_s"] = draw(_bounded_floats(0.0, 10.0))
    if draw(st.booleans()):
        config["recover_s"] = draw(_bounded_floats(0.0, 10.0))
    if tenant_names and draw(st.booleans()):
        config["low_priority_tenants"] = draw(st.lists(
            st.sampled_from(sorted(tenant_names)), min_size=1,
            max_size=len(tenant_names), unique=True,
        ))
    return config


@st.composite
def resilience_configs(draw, *, tenant_names: tuple = ()):
    """Random valid ``"resilience"`` blocks (always with at least one
    sub-policy — an empty or disabled block is byte-identical to omission,
    which the scenario composite covers by omitting the key)."""
    config: dict = {}
    if draw(st.booleans()):
        config["seed"] = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        config["deadline"] = draw(model_strategy(
            DeadlineSpec, timeout_s=_bounded_floats(2.0, 60.0),
        ))
    if draw(st.booleans()):
        config["retry"] = draw(model_strategy(RetrySpec))
    if draw(st.booleans()):
        config["hedge"] = draw(model_strategy(HedgeSpec))
    if draw(st.booleans()):
        config["breaker"] = draw(model_strategy(BreakerSpec))
    if draw(st.booleans()):
        config["degrade"] = draw(degrade_configs(tenant_names=tenant_names))
    if not any(key in config for key in
               ("deadline", "retry", "hedge", "breaker", "degrade")):
        config["deadline"] = {"timeout_s": draw(_bounded_floats(2.0, 60.0))}
    return config


#: Per-arrival-process parameter strategies — names must match the factories
#: in :data:`repro.simulation.arrival.ARRIVAL_FACTORIES` (pinned by a test).
_ARRIVAL_STRATEGIES: dict = {
    "poisson": {"rate": _bounded_floats(1.0, 8.0)},
    "uniform": {"rate": _bounded_floats(1.0, 8.0)},
    "burst": {"at_time": _bounded_floats(0.0, 5.0)},
    "mmpp": {
        "base_rate": _bounded_floats(1.0, 4.0),
        "burst_rate": _bounded_floats(5.0, 12.0),
        "mean_quiet_seconds": _bounded_floats(2.0, 10.0),
        "mean_burst_seconds": _bounded_floats(1.0, 5.0),
        "start_bursting": st.booleans(),
    },
    "diurnal": {
        "mean_rate": _bounded_floats(1.0, 6.0),
        "period_seconds": _bounded_floats(10.0, 60.0),
        "amplitude": _bounded_floats(0.1, 0.9),
    },
    "flash-crowd": {
        "base_rate": _bounded_floats(1.0, 3.0),
        "spike_rate": _bounded_floats(6.0, 12.0),
        "first_spike_at": _bounded_floats(1.0, 5.0),
        "spike_seconds": _bounded_floats(1.0, 5.0),
        "spike_interval_seconds": _bounded_floats(8.0, 20.0),
    },
    "closed-loop": {
        "num_clients": st.integers(2, 4),
        "mean_think_seconds": _bounded_floats(0.2, 2.0),
    },
}

#: Per-workload parameter strategies, sized so every generated trace stays a
#: handful of small requests (the fuzzer simulates hundreds of scenarios).
_WORKLOAD_STRATEGIES: dict = {
    "post-recommendation": {
        "num_users": st.integers(2, 4),
        "posts_per_user": st.integers(2, 5),
    },
    "credit-verification": {
        "num_users": st.integers(2, 3),
        "months_of_history": st.integers(1, 2),
        "month_min_tokens": st.just(200),
        "month_max_tokens": st.just(400),
    },
}


@st.composite
def tenant_configs(draw, *, name: str):
    """One random valid tenant entry."""
    workload = draw(st.sampled_from(sorted(_WORKLOAD_STRATEGIES)))
    arrival = draw(st.sampled_from(sorted(_ARRIVAL_STRATEGIES)))
    tenant: dict = {
        "name": name,
        "workload": workload,
        "workload_params": draw(st.fixed_dictionaries(_WORKLOAD_STRATEGIES[workload])),
        "arrival": arrival,
        "arrival_params": draw(st.fixed_dictionaries(_ARRIVAL_STRATEGIES[arrival])),
    }
    if draw(st.booleans()):
        tenant["weight"] = draw(st.sampled_from([0.5, 0.75, 1.0]))
    if draw(st.booleans()):
        tenant["slo_latency_s"] = draw(_bounded_floats(0.5, 10.0))
    return tenant


@st.composite
def scenario_configs(draw):
    """Whole random valid scenario documents, small enough to simulate fast.

    Dimensions covered: tenant count and composition (workload × params ×
    arrival process × weight × SLO), replica count, router, admission
    control, autoscaling, tiered KV cache, and fault schedules — the full
    config space the spec layer accepts, not just the cookbook corner.
    """
    replicas = draw(st.integers(1, 3))
    num_tenants = draw(st.integers(1, 2))
    config: dict = {
        "name": "fuzz-scenario",
        "replicas": replicas,
        "router": draw(st.sampled_from(["user-id", "least-loaded", "prefix-affinity"])),
        "seed": draw(st.integers(0, 2**16)),
        "tenants": [
            draw(tenant_configs(name=f"tenant-{index}"))
            for index in range(num_tenants)
        ],
    }
    if draw(st.booleans()):
        config["max_queue_depth"] = draw(st.integers(2, 32))
    if draw(st.booleans()):
        config["autoscale"] = draw(autoscale_configs())
    if draw(st.booleans()):
        config["kv_tiers"] = draw(kv_tiers_configs())
    if draw(st.booleans()):
        config["faults"] = draw(fault_configs(replicas=replicas))
    if draw(st.booleans()):
        # Exercise the sharded engine: the invariant test's first run keeps
        # its fleet and so runs unsharded, the second takes the shards, so
        # decoupled draws pin the parallel path against the fleet loop too.
        config["shards"] = draw(st.integers(2, 4))
    if draw(st.booleans()):
        # Recording observes the run without changing it, so the fuzzer's
        # invariants must hold verbatim with the recorder switched on.
        config["observability"] = draw(observability_configs())
    if draw(st.booleans()):
        config["resilience"] = draw(resilience_configs(
            tenant_names=tuple(t["name"] for t in config["tenants"]),
        ))
    return config


# --------------------------------------------------------------------------
# Config-pair mutators for the metamorphic relations.
# --------------------------------------------------------------------------


@st.composite
def _metamorphic_base_configs(draw, *, router: str, admission: bool,
                              tiers: bool = False):
    """A restricted scenario family the metamorphic relations hold over.

    No faults and no autoscaler (adaptive control may trade the measured
    metric for resilience or cost), a caller-fixed router (so the pair's
    routing policy is the same function on both sides), and the usual tiny
    tenant mixes.  ``build_mix`` derives the request stream from tenants and
    seed alone, so both sides of every pair see the identical offered load.
    """
    config: dict = {
        "name": "metamorphic-base",
        "replicas": draw(st.integers(1, 3)),
        "router": router,
        "seed": draw(st.integers(0, 2**16)),
        "tenants": [
            draw(tenant_configs(name=f"tenant-{index}"))
            for index in range(draw(st.integers(1, 2)))
        ],
    }
    if admission:
        config["max_queue_depth"] = draw(st.integers(1, 4))
    if tiers:
        config["kv_tiers"] = {
            "enabled": True,
            "tiers": {
                "host": {
                    "capacity_gib": draw(_bounded_floats(0.25, 4.0)),
                    "link": "pcie-gen4",
                },
            },
        }
    return config


@st.composite
def capacity_pair_configs(draw):
    """``(base, more)``: ``more`` only adds replicas.

    Relation: added replica capacity never lowers goodput.  Uses the
    least-loaded router — its decision ("the emptiest queue") extends
    pointwise to a larger fleet, unlike hash routers whose assignment
    reshuffles with the modulus.
    """
    base = draw(_metamorphic_base_configs(router="least-loaded",
                                          admission=True))
    more = dict(base)
    more["replicas"] = base["replicas"] + draw(st.integers(1, 2))
    return base, more


@st.composite
def admission_pair_configs(draw):
    """``(base, deeper)``: ``deeper`` only raises ``max_queue_depth``.

    Relation: a deeper admission queue never sheds more requests.  Uses the
    user-id router — routing is a pure function of the arrival sequence, so
    the deeper queue admits a superset per replica with no feedback through
    routing decisions.
    """
    base = draw(_metamorphic_base_configs(router="user-id", admission=True))
    deeper = dict(base)
    deeper["max_queue_depth"] = base["max_queue_depth"] + draw(st.integers(1, 8))
    return base, deeper


@st.composite
def interconnect_pair_configs(draw):
    """``(base, faster)``: ``faster`` only upgrades the L2 tier link.

    Relation: a faster interconnect (pcie-gen4 -> nvlink: 18x the bandwidth,
    a third of the latency) never raises mean latency.  No admission control
    on either side, so every request finishes and the means average the same
    request population.

    Two extra restrictions make the relation exact rather than statistical:
    every tenant bursts at the same instant (when all arrivals precede all
    completions, each replica's FIFO order alone determines the cache state
    at every request start, so both sides take identical hit/miss decisions
    and differ only in the charged transfer time — with staggered arrivals,
    a completion-time shift can flip which of two prefix-sharing requests
    wins the GPU-resident prefix, and the loser's L2 fetch may cost more
    than the resident hit it displaced), and the shared L3 tier is disabled
    (a publish from one replica lands in the other replicas' lookup path at
    a link-dependent time, breaking the per-replica argument).
    """
    base = draw(_metamorphic_base_configs(router="user-id", admission=False,
                                          tiers=True))
    at_time = draw(_bounded_floats(0.0, 5.0))
    for tenant in base["tenants"]:
        tenant["arrival"] = "burst"
        tenant["arrival_params"] = {"at_time": at_time}
    base["kv_tiers"] = {
        **base["kv_tiers"],
        "tiers": {**base["kv_tiers"]["tiers"],
                  "cluster": {"capacity_gib": 0.0}},
    }
    faster = dict(base)
    faster["kv_tiers"] = {
        **base["kv_tiers"],
        "tiers": {**base["kv_tiers"]["tiers"],
                  "host": {**base["kv_tiers"]["tiers"]["host"],
                           "link": "nvlink"}},
    }
    return base, faster


@st.composite
def deadline_pair_configs(draw):
    """``(base, longer)``: ``longer`` only extends the deadline.

    Relation: a longer deadline never misses more deadlines.  Deadline-only
    resilience on the user-id router (routing is a pure function of the
    arrival sequence, so both sides route identically); no faults, no
    autoscaler, no admission — a cancellation only ever *frees* capacity, so
    the later cancellation instants of the longer side cannot make any
    request later than it was on the base side.
    """
    base = draw(_metamorphic_base_configs(router="user-id", admission=False))
    base["resilience"] = {
        "deadline": {"timeout_s": draw(_bounded_floats(0.5, 10.0))},
    }
    longer = dict(base)
    longer["resilience"] = {
        "deadline": {"timeout_s": round(
            base["resilience"]["deadline"]["timeout_s"]
            + draw(_bounded_floats(0.5, 30.0)), _FLOAT_PLACES,
        )},
    }
    return base, longer


@st.composite
def hedge_pair_configs(draw):
    """``(base, hedged)``: ``hedged`` only adds first-completion-wins hedging.

    Relation: hedging with loser cancellation never increases crash-lost
    tokens.  The family keeps the relation exact by construction: every crash
    lands strictly before the fixed hedge delay has elapsed (crashes at
    t < 1.8, ``delay_s`` >= 2.0), so the two runs are identical through the
    last loss event and any *excess* loss on the hedged side can only come
    from hedge accounting itself — a cancelled loser or a surviving copy
    billed as lost work.  Crashes landing *after* hedges are in flight move
    other requests' completion times and can change which work a crash
    catches in flight, so that regime is pinned by the deterministic
    rollback tests in ``tests/test_resilience.py`` instead of a monotonic
    relation here.
    """
    base = draw(_metamorphic_base_configs(router="user-id", admission=False))
    replicas = max(base["replicas"], 2)
    base["replicas"] = replicas
    events = []
    for _ in range(draw(st.integers(1, 2))):
        at = draw(_bounded_floats(0.2, 1.8))
        events.append({
            "kind": "crash",
            "replica": draw(st.integers(0, replicas - 1)),
            "at": at,
            "recover_at": round(at + draw(_bounded_floats(1.0, 10.0)),
                                _FLOAT_PLACES),
        })
    base["faults"] = {"enabled": True, "events": events}
    hedged = dict(base)
    hedged["resilience"] = {"hedge": draw(model_strategy(
        HedgeSpec,
        delay_s=_bounded_floats(2.0, 6.0),
        min_samples=st.integers(1, 4),
    ))}
    return base, hedged


@st.composite
def breaker_toggle_configs(draw):
    """``(base, toggled)``: identical scenarios, ``toggled`` carrying a
    ``"resilience"`` block that is present but inert (``enabled: false``, or
    enabled with no sub-policies).

    Relation: an inert block is byte-identical to omission — the
    resilience-off contract the golden fingerprints pin for the cookbook,
    fuzzed across the whole config family here.
    """
    base = draw(scenario_configs())
    base.pop("resilience", None)
    toggled = dict(base)
    inert = draw(st.sampled_from(["disabled", "empty"]))
    if inert == "disabled":
        block = draw(resilience_configs())
        block["enabled"] = False
        toggled["resilience"] = block
    else:
        toggled["resilience"] = {"enabled": True}
    return base, toggled
