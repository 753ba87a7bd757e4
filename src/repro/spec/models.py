"""The declarative spec models of every JSON config format.

Typed models of the JSON shapes the system parses — scenario documents,
``"kv_tiers"``, ``"faults"``, ``"observability"`` and ``"resilience"``
blocks, tenants, autoscale policies, alert rules, and fault events —
declared once with :func:`repro.spec.core.spec_field` and consumed four
ways: construction checks (every instance, parsed or built by hand, holds
valid values), parsing (:func:`repro.spec.core.from_dict`), normalization /
docs generation, and hypothesis fuzzing (:mod:`repro.spec.fuzz`).

Where a block's JSON shape is its runtime shape, the model *is* the runtime
config: fleets, replicas, tier stores, recorders, alert evaluation and the
resilience policies read :class:`KVTiersSpec`, :class:`ObservabilitySpec`,
:class:`AlertRuleSpec`, :class:`ResilienceSpec` and its sub-specs directly,
through a few read-only properties for the derived views (``host``,
``promote_at``, ``buckets``, ``active``).  Only blocks whose runtime object
does real work beyond the JSON are compiled by a service layer: the fault
schedule (``repro.faults.schedule``) and the tenants and scenario
(``repro.simulation.scenario``).  The models import nothing from engines,
fleets, or schedules, which keeps the dependency direction one-way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import (
    FaultScheduleError,
    ResilienceSpecError,
    ScenarioSpecError,
    TierCapacityError,
    TierSpecError,
    UnknownFaultError,
    UnknownTierError,
)
from repro.spec.core import from_dict, normalize, spec_field, spec_model

__all__ = [
    "TIER_NAMES",
    "FAULT_KINDS",
    "DEFAULT_LATENCY_BUCKETS",
    "HostTierSpec",
    "ClusterTierSpec",
    "KVTiersSpec",
    "CrashEventSpec",
    "RecoverEventSpec",
    "SlowEventSpec",
    "BrownoutEventSpec",
    "OutageEventSpec",
    "SpotPreemptEventSpec",
    "GenerateSpec",
    "FaultsSpec",
    "AutoscaleSpec",
    "ObservabilitySpec",
    "AlertRuleSpec",
    "DeadlineSpec",
    "RetrySpec",
    "HedgeSpec",
    "BreakerSpec",
    "DegradationSpec",
    "ResilienceSpec",
    "TenantModel",
    "ScenarioModel",
    "parse_fault_event",
    "normalize_fault_event",
    "DOCUMENTED_MODELS",
]

#: The tiers a ``"kv_tiers"`` block may size.  ``gpu`` (L1) is sized by the
#: engine's profile run, not by config, so it is deliberately absent here.
TIER_NAMES = ("host", "cluster")

#: The fault kinds a ``"faults"`` block's ``events`` list may use.
FAULT_KINDS = ("crash", "recover", "slow", "brownout", "outage", "spot_preempt")

#: The promotion policies a ``"kv_tiers"`` block may name; each is a hit
#: threshold (:attr:`KVTiersSpec.promote_at`).
PROMOTION_POLICY_NAMES = ("always", "never", "on-nth-hit")

#: Default request-latency histogram bucket upper edges (seconds), used when
#: an ``"observability"`` block leaves ``latency_buckets`` empty.  A value
#: equal to an edge falls in that edge's bucket (Prometheus ``le`` semantics).
DEFAULT_LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


def _capacity_check(tier: str):
    """Per-tier capacity validator preserving the typed TierCapacityError."""

    def check(value, path: str) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TierCapacityError(
                f"capacity_gib must be a number, got {value!r}",
                tier=tier, path=path,
            )
        if value < 0:
            raise TierCapacityError(
                f"{tier} capacity_gib must be non-negative, got {value}",
                tier=tier, path=path,
            )

    return check


@spec_model(error=TierSpecError, path="kv_tiers.tiers.host",
            title="kv_tiers.tiers.host")
@dataclass(frozen=True)
class HostTierSpec:
    """Sizing of the per-replica host-memory (L2) tier."""

    capacity_gib: float = spec_field(
        default=4.0, types=(int, float), convert=float,
        check=_capacity_check("host"), constraint_doc=">= 0 (0 disables L2)",
        fuzz=(0.001, 64.0),
        doc="Host-memory budget (GiB) of the per-replica L2 store.",
    )
    link: str = spec_field(
        default="pcie-gen4", types=str,
        doc="Interconnect name charged for GPU <-> host transfers.",
        fuzz=("pcie-gen4",),
    )


@spec_model(error=TierSpecError, path="kv_tiers.tiers.cluster",
            title="kv_tiers.tiers.cluster")
@dataclass(frozen=True)
class ClusterTierSpec:
    """Sizing of the fleet-shared cluster (L3) tier."""

    capacity_gib: float = spec_field(
        default=16.0, types=(int, float), convert=float,
        check=_capacity_check("cluster"), constraint_doc=">= 0 (0 disables L3)",
        fuzz=(0.001, 256.0),
        doc="Byte budget (GiB) of the fleet-shared L3 store.",
    )
    link: str = spec_field(
        default="nvlink", types=str,
        doc="Interconnect name charged for replica <-> cluster-store transfers.",
        fuzz=("nvlink",),
    )


@spec_model(error=TierSpecError, path="kv_tiers", title="kv_tiers")
@dataclass(frozen=True)
class KVTiersSpec:
    """One ``"kv_tiers"`` config block (see ``docs/KV_TIERS.md``)."""

    version: int = spec_field(
        default=1, types=int, doc="Config format version.",
    )
    enabled: bool = spec_field(
        default=False, types=bool,
        doc="Master switch; false is byte-identical to omitting the block.",
    )
    tiers: dict = spec_field(
        default={},
        key_models={"host": HostTierSpec, "cluster": ClusterTierSpec},
        unknown_key_error=lambda key, path: UnknownTierError(
            key, TIER_NAMES, path=path
        ),
        doc="Per-tier sizing; unknown tier names fail with the valid names.",
    )
    promotion: str = spec_field(
        default="on-nth-hit", choices=PROMOTION_POLICY_NAMES, types=str,
        doc="When a lower-tier hit is promoted into GPU memory.",
    )
    promotion_threshold: int = spec_field(
        default=2, types=int, minimum=1, fuzz=(1, 4),
        doc="The N of the on-nth-hit promotion policy.",
    )
    demote_on_evict: bool = spec_field(
        default=True, types=bool,
        doc="Evictions cascade down the hierarchy instead of dropping blocks.",
    )
    prefetch: bool = spec_field(
        default=True, types=bool,
        doc="Router-hint prefetch into the routed replica before dispatch.",
    )

    @property
    def host(self) -> HostTierSpec:
        """The host (L2) tier's sizing; its defaults when ``tiers`` omits it."""
        return self.tiers.get("host") or HostTierSpec()

    @property
    def cluster(self) -> ClusterTierSpec:
        """The cluster (L3) tier's sizing; its defaults when ``tiers`` omits it."""
        return self.tiers.get("cluster") or ClusterTierSpec()

    @property
    def promote_at(self) -> float:
        """Lower-tier hits at which a block is promoted into L1.

        ``always`` is 0, not 1: a commit asks with a block's stored hit
        count, which is 0 for a block that has not hit yet.  ``never`` is
        infinite, so no count reaches it.
        """
        if self.promotion == "always":
            return 0
        if self.promotion == "never":
            return math.inf
        return self.promotion_threshold


# --------------------------------------------------------------- fault events


@spec_model(error=FaultScheduleError, title="faults.events[] (crash)")
@dataclass(frozen=True)
class CrashEventSpec:
    """Kill a replica; optionally schedule its repair."""

    kind: str = spec_field(default="crash", choices=("crash",), types=str,
                           doc="Event kind discriminator.")
    replica: int = spec_field(
        types=int, minimum=0, fuzz=(0, 3),
        doc="Logical replica id the crash targets.",
    )
    at: float = spec_field(
        types=(int, float), minimum=0, convert=float, fuzz=(0.0, 120.0),
        doc="Simulated crash time (seconds).",
    )
    recover_at: float | None = spec_field(
        default=None, types=(int, float), minimum=0, convert=float,
        fuzz=(0.001, 240.0),
        doc="Optional repair time; must be after ``at``.",
    )

    def __spec_validate__(self, path: str) -> None:
        if self.recover_at is not None and self.recover_at <= self.at:
            raise FaultScheduleError(
                f"recover_at ({self.recover_at:g}) must be after at ({self.at:g})",
                path=f"{path}.recover_at",
            )


@spec_model(error=FaultScheduleError, title="faults.events[] (recover)")
@dataclass(frozen=True)
class RecoverEventSpec:
    """Repair a previously crashed replica."""

    kind: str = spec_field(default="recover", choices=("recover",), types=str,
                           doc="Event kind discriminator.")
    replica: int = spec_field(
        types=int, minimum=0, fuzz=(0, 3),
        doc="Logical replica id to rebuild.",
    )
    at: float = spec_field(
        types=(int, float), minimum=0, convert=float, fuzz=(0.0, 240.0),
        doc="Simulated repair time (seconds).",
    )


@spec_model(error=FaultScheduleError, title="faults.events[] (slow)")
@dataclass(frozen=True)
class SlowEventSpec:
    """Degrade one replica's service time for a window."""

    kind: str = spec_field(default="slow", choices=("slow",), types=str,
                           doc="Event kind discriminator.")
    replica: int = spec_field(
        types=int, minimum=0, fuzz=(0, 3),
        doc="Logical replica id the degradation targets.",
    )
    at: float = spec_field(
        types=(int, float), minimum=0, convert=float, fuzz=(0.0, 120.0),
        doc="Window start (seconds).",
    )
    duration: float = spec_field(
        types=(int, float), minimum=0, exclusive_minimum=True, convert=float,
        fuzz=(0.5, 60.0),
        doc="Window length (seconds).",
    )
    multiplier: float = spec_field(
        default=2.0, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(1.1, 8.0),
        doc="Service-time multiplier applied inside the window.",
    )


@spec_model(error=FaultScheduleError, title="faults.events[] (brownout)")
@dataclass(frozen=True)
class BrownoutEventSpec:
    """Multiply every tier transfer cost fleet-wide for a window."""

    kind: str = spec_field(default="brownout", choices=("brownout",), types=str,
                           doc="Event kind discriminator.")
    at: float = spec_field(
        types=(int, float), minimum=0, convert=float, fuzz=(0.0, 120.0),
        doc="Window start (seconds).",
    )
    duration: float = spec_field(
        types=(int, float), minimum=0, exclusive_minimum=True, convert=float,
        fuzz=(0.5, 60.0),
        doc="Window length (seconds).",
    )
    multiplier: float = spec_field(
        default=4.0, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(1.1, 8.0),
        doc="Tier transfer-cost multiplier applied inside the window.",
    )


@spec_model(error=FaultScheduleError, title="faults.events[] (outage)")
@dataclass(frozen=True)
class OutageEventSpec:
    """Take the fleet-shared cluster (L3) store down for a window."""

    kind: str = spec_field(default="outage", choices=("outage",), types=str,
                           doc="Event kind discriminator.")
    at: float = spec_field(
        types=(int, float), minimum=0, convert=float, fuzz=(0.0, 120.0),
        doc="Window start (seconds).",
    )
    duration: float = spec_field(
        types=(int, float), minimum=0, exclusive_minimum=True, convert=float,
        fuzz=(0.5, 60.0),
        doc="Window length (seconds).",
    )


@spec_model(error=FaultScheduleError, title="faults.events[] (spot_preempt)")
@dataclass(frozen=True)
class SpotPreemptEventSpec:
    """Preempt a spot replica with warning: drain, then kill what remains.

    Models a cloud provider reclaiming a preemptible instance.  At ``at`` the
    replica stops taking traffic and starts draining (flushing hot prefixes
    into the shared cluster store on the way out, like a scale-down); at
    ``at + warning_s`` whatever has not drained is killed like a crash.  An
    optional ``recover_at`` schedules a fresh replacement in the same logical
    slot (spot capacity coming back).
    """

    kind: str = spec_field(default="spot_preempt", choices=("spot_preempt",),
                           types=str, doc="Event kind discriminator.")
    replica: int = spec_field(
        types=int, minimum=0, fuzz=(0, 3),
        doc="Logical replica id the preemption targets.",
    )
    at: float = spec_field(
        types=(int, float), minimum=0, convert=float, fuzz=(0.0, 120.0),
        doc="Simulated preemption-notice time (seconds).",
    )
    warning_s: float = spec_field(
        default=30.0, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(1.0, 60.0),
        doc="Grace period between the notice and the kill (seconds).",
    )
    recover_at: float | None = spec_field(
        default=None, types=(int, float), minimum=0, convert=float,
        fuzz=(0.001, 240.0),
        doc="Optional replacement time; must be after ``at + warning_s``.",
    )

    def __spec_validate__(self, path: str) -> None:
        if (self.recover_at is not None
                and self.recover_at <= self.at + self.warning_s):
            raise FaultScheduleError(
                f"recover_at ({self.recover_at:g}) must be after the kill at "
                f"at + warning_s ({self.at + self.warning_s:g})",
                path=f"{path}.recover_at",
            )


_EVENT_MODELS = {
    "crash": CrashEventSpec,
    "recover": RecoverEventSpec,
    "slow": SlowEventSpec,
    "brownout": BrownoutEventSpec,
    "outage": OutageEventSpec,
    "spot_preempt": SpotPreemptEventSpec,
}


def _event_model(entry, path: str) -> type:
    """The event model an ``events[]`` entry's ``kind`` names."""
    if not isinstance(entry, dict):
        raise FaultScheduleError(
            f"expected a JSON object, got {type(entry).__name__}", path=path
        )
    kind = entry.get("kind")
    # A list or object kind is unhashable, so it cannot be looked up.
    model = _EVENT_MODELS.get(kind) if isinstance(kind, str) else None
    if model is None:
        raise UnknownFaultError(str(kind), FAULT_KINDS, path=f"{path}.kind")
    return model


def parse_fault_event(entry, path: str):
    """Parse one polymorphic ``events[]`` entry by its ``kind`` discriminator.

    Raises:
        UnknownFaultError: when ``kind`` names no registered fault kind (the
            message lists the valid kinds and the JSON path of the typo).
        FaultScheduleError: on any other malformed key or value.
    """
    return from_dict(_event_model(entry, path), entry, path=path)


def normalize_fault_event(entry, path: str) -> dict:
    """The :func:`repro.spec.core.normalize` counterpart of the event union."""
    return normalize(_event_model(entry, path), entry, path=path)


@spec_model(error=FaultScheduleError, path="faults.generate",
            title="faults.generate")
@dataclass(frozen=True)
class GenerateSpec:
    """Seeded per-replica crash/recover processes (exponential MTBF/MTTR)."""

    mtbf_s: float = spec_field(
        types=(int, float), minimum=0, exclusive_minimum=True, convert=float,
        fuzz=(20.0, 600.0),
        doc="Mean time between failures per replica (seconds).",
    )
    mttr_s: float = spec_field(
        types=(int, float), minimum=0, exclusive_minimum=True, convert=float,
        fuzz=(5.0, 120.0),
        doc="Mean time to repair (seconds).",
    )
    horizon_s: float = spec_field(
        types=(int, float), minimum=0, exclusive_minimum=True, convert=float,
        fuzz=(30.0, 600.0),
        doc="Generation horizon (seconds); repairs past it stay down.",
    )
    seed: int = spec_field(
        default=0, types=int, minimum=0, fuzz=(0, 2**16),
        doc="Seed of the per-replica fault streams.",
    )
    replicas: int | None = spec_field(
        default=None, types=int, minimum=1, fuzz=(1, 4),
        doc="Replica count; defaults to the surrounding scenario's.",
    )


@spec_model(error=FaultScheduleError, path="faults", title="faults")
@dataclass(frozen=True)
class FaultsSpec:
    """One ``"faults"`` config block (see ``docs/FAULTS.md``)."""

    version: int = spec_field(
        default=1, types=int, doc="Config format version.",
    )
    enabled: bool = spec_field(
        default=True, types=bool,
        doc="Master switch; false injects nothing, byte-identical to omission.",
    )
    warm_restore_blocks: int = spec_field(
        default=256, types=int, minimum=0, fuzz=(0, 512),
        doc="L3 -> L2 warm-restore budget (blocks) on replica rejoin.",
    )
    events: tuple = spec_field(
        default=(), item_parser=parse_fault_event,
        item_normalizer=normalize_fault_event,
        constraint_doc="array of fault events, dispatched on `kind`",
        doc="Explicit fault events (see the per-kind tables below).",
    )
    generate: GenerateSpec | None = spec_field(
        default=None, model=GenerateSpec,
        doc="Seeded crash/recover generator, merged with ``events``.",
    )


# ------------------------------------------------------------------ scenarios


@spec_model(error=ScenarioSpecError, path="autoscale", title="autoscale")
@dataclass(frozen=True)
class AutoscaleSpec:
    """Reactive autoscaler bounds and thresholds."""

    min_replicas: int = spec_field(
        default=1, types=int, minimum=1, fuzz=(1, 2),
        doc="Lower bound on the active replica count.",
    )
    max_replicas: int = spec_field(
        default=8, types=int, minimum=1, fuzz=(2, 6),
        doc="Upper bound on the active replica count.",
    )
    scale_up_rps_per_replica: float = spec_field(
        types=(int, float), minimum=0, exclusive_minimum=True, convert=float,
        fuzz=(0.5, 8.0),
        doc="Windowed arrival rate per replica that triggers scale-up.",
    )
    window_seconds: float = spec_field(
        default=30.0, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(5.0, 60.0),
        doc="Length of the sliding observation window (seconds).",
    )
    cooldown_seconds: float = spec_field(
        default=60.0, types=(int, float), minimum=0, convert=float,
        fuzz=(0.0, 120.0),
        doc="Minimum time between two scale events (seconds).",
    )

    def __spec_validate__(self, path: str) -> None:
        if self.max_replicas < self.min_replicas:
            raise ScenarioSpecError(
                f"max_replicas ({self.max_replicas}) must be >= min_replicas "
                f"({self.min_replicas})", path=f"{path}.max_replicas",
            )


def _parse_latency_bucket(entry, path: str) -> float:
    # NaN passes ``entry <= 0`` and the strictly-increasing check, and
    # infinity is no bucket edge.
    if (isinstance(entry, bool) or not isinstance(entry, (int, float))
            or not math.isfinite(entry) or entry <= 0):
        raise ScenarioSpecError(
            f"latency bucket edges must be positive finite numbers, got {entry!r}",
            path=path,
        )
    return float(entry)


@spec_model(error=ScenarioSpecError, path="observability.alerts[]",
            title="observability.alerts[]")
@dataclass(frozen=True)
class AlertRuleSpec:
    """One multi-window burn-rate alert rule under ``observability.alerts``.

    Evaluated post-hoc by ``prefillonly obs alerts`` against the tenants'
    latency SLOs (see "Analyzing traces" in ``docs/OBSERVABILITY.md``).  The
    error budget is ``1 - objective``; the windowed burn rate is the window's
    SLO-miss ratio divided by the budget (burn 1.0 consumes exactly the
    budget over the SLO period).  The rule fires while *both* windows burn at
    ``burn_rate`` or faster — the long window keeps the alert from flapping,
    the short window lets it resolve promptly.
    """

    name: str = spec_field(
        types=str, doc="Rule name (alert events and reports key on it).",
    )
    objective: float = spec_field(
        default=0.99, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(0.5, 0.999),
        constraint_doc="in (0, 1); the error budget is 1 - objective",
        doc="SLO attainment objective the error budget derives from.",
    )
    long_window_s: float = spec_field(
        default=30.0, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(5.0, 60.0),
        doc="Long burn-rate window (simulated seconds).",
    )
    short_window_s: float = spec_field(
        default=6.0, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(1.0, 5.0),
        constraint_doc="positive, < long_window_s",
        doc="Short confirmation window (simulated seconds).",
    )
    burn_rate: float = spec_field(
        default=6.0, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(1.0, 20.0),
        doc="Budget-consumption multiple both windows must reach to fire.",
    )
    severity: str = spec_field(
        default="ticket", choices=("page", "ticket"),
        doc="Alert severity label carried on emitted events.",
    )
    tenant: str | None = spec_field(
        default=None, types=str,
        doc="Restrict the rule to one tenant; omit for every SLO tenant.",
    )

    def __spec_validate__(self, path: str) -> None:
        if not self.name:
            raise ScenarioSpecError("alert rule name must be non-empty",
                                    path=f"{path}.name")
        if self.objective >= 1.0:
            raise ScenarioSpecError(
                f"objective must be < 1 (the error budget is 1 - objective), "
                f"got {self.objective:g}", path=f"{path}.objective",
            )
        if self.short_window_s >= self.long_window_s:
            raise ScenarioSpecError(
                f"short_window_s ({self.short_window_s:g}) must be < "
                f"long_window_s ({self.long_window_s:g})",
                path=f"{path}.short_window_s",
            )


def _parse_alert_rule(entry, path: str) -> AlertRuleSpec:
    return from_dict(AlertRuleSpec, entry, path=path)


def _normalize_alert_rule(entry, path: str) -> dict:
    return normalize(AlertRuleSpec, entry, path=path)


@spec_model(error=ScenarioSpecError, path="observability", title="observability")
@dataclass(frozen=True)
class ObservabilitySpec:
    """One ``"observability"`` config block (see ``docs/OBSERVABILITY.md``)."""

    version: int = spec_field(
        default=1, types=int, doc="Config format version.",
    )
    enabled: bool = spec_field(
        default=False, types=bool,
        doc="Master switch; false records nothing, byte-identical to omission.",
    )
    spans: bool = spec_field(
        default=True, types=bool,
        doc="Record per-request lifecycle span events.",
    )
    metrics: bool = spec_field(
        default=True, types=bool,
        doc="Record the sampled time-series metrics.",
    )
    sample_interval_s: float = spec_field(
        # Bounded below, not just positive: every boundary snapshots every
        # counter, and an interval like 1e-300 would take forever.
        default=1.0, types=(int, float), minimum=0.01, convert=float,
        fuzz=(0.25, 5.0),
        doc="Simulated seconds between metric sample boundaries.",
    )
    latency_buckets: tuple = spec_field(
        default=(), item_parser=_parse_latency_bucket,
        item_normalizer=_parse_latency_bucket,
        constraint_doc="strictly increasing positive numbers; empty uses "
                       "the default buckets",
        doc="Request-latency histogram bucket upper edges (seconds).",
    )
    alerts: tuple = spec_field(
        default=(), item_parser=_parse_alert_rule,
        item_normalizer=_normalize_alert_rule,
        constraint_doc="array of alert rules; empty uses the built-in "
                       "fast-burn/slow-burn pair",
        doc="Burn-rate alert rules for ``prefillonly obs alerts``.",
    )

    @property
    def buckets(self) -> tuple:
        """The histogram bucket edges to record: ``latency_buckets``, or
        :data:`DEFAULT_LATENCY_BUCKETS` when it is empty."""
        return tuple(self.latency_buckets) or DEFAULT_LATENCY_BUCKETS

    def __spec_validate__(self, path: str) -> None:
        for previous, current in zip(self.latency_buckets,
                                     self.latency_buckets[1:]):
            if current <= previous:
                raise ScenarioSpecError(
                    "latency_buckets must be strictly increasing, got "
                    f"{current:g} after {previous:g}",
                    path=f"{path}.latency_buckets",
                )


# ----------------------------------------------------------------- resilience


@spec_model(error=ResilienceSpecError, path="resilience.deadline",
            title="resilience.deadline")
@dataclass(frozen=True)
class DeadlineSpec:
    """Per-request deadlines: cancel work past ``arrival + timeout_s``."""

    timeout_s: float = spec_field(
        types=(int, float), minimum=0, exclusive_minimum=True, convert=float,
        fuzz=(1.0, 120.0),
        doc="Deadline measured from the request's arrival (seconds).",
    )


@spec_model(error=ResilienceSpecError, path="resilience.retry",
            title="resilience.retry")
@dataclass(frozen=True)
class RetrySpec:
    """Bounded retries with exponential backoff + seeded jitter.

    The backoff before re-execution ``n + 1`` is
    ``backoff_base_s * backoff_multiplier ** (n - 1) * (1 + jitter * u)``
    with ``u`` drawn from ``default_rng([seed, request_id, n])``, one stream
    per (request, attempt), so the schedule is a pure function of the config.
    """

    max_attempts: int = spec_field(
        default=3, types=int, minimum=1, fuzz=(1, 4),
        doc="Maximum executions of one request; the first submission is "
            "attempt 1.",
    )
    budget_per_tenant: int | None = spec_field(
        default=None, types=int, minimum=0, fuzz=(0, 64),
        doc="Total retries a tenant may consume; omit for unlimited.",
    )
    backoff_base_s: float = spec_field(
        default=0.5, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(0.05, 5.0),
        doc="Backoff before the first retry (seconds).",
    )
    backoff_multiplier: float = spec_field(
        default=2.0, types=(int, float), minimum=1, convert=float,
        fuzz=(1.0, 4.0),
        doc="Backoff growth factor per attempt.",
    )
    jitter: float = spec_field(
        default=0.5, types=(int, float), minimum=0, convert=float,
        fuzz=(0.0, 1.0),
        doc="Jitter fraction: the delay is scaled by ``1 + jitter * u`` with "
            "``u`` drawn from the request's seeded RNG stream.",
    )


@spec_model(error=ResilienceSpecError, path="resilience.hedge",
            title="resilience.hedge")
@dataclass(frozen=True)
class HedgeSpec:
    """Hedged requests: duplicate stragglers, first completion wins."""

    delay_s: float | None = spec_field(
        default=None, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(0.1, 30.0),
        doc="Fixed hedge delay (seconds); omit to derive it from the "
            "latency percentile below.",
    )
    percentile: float = spec_field(
        default=95.0, types=(int, float), minimum=50, maximum=100,
        convert=float, fuzz=(50.0, 99.0),
        doc="Completed-latency percentile used as the hedge delay once "
            "``min_samples`` completions exist.",
    )
    min_samples: int = spec_field(
        default=20, types=int, minimum=1, fuzz=(1, 32),
        doc="Completions needed before the percentile delay activates.",
    )
    min_delay_s: float = spec_field(
        default=0.05, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(0.01, 2.0),
        doc="Lower bound on the derived hedge delay (seconds).",
    )


@spec_model(error=ResilienceSpecError, path="resilience.breaker",
            title="resilience.breaker")
@dataclass(frozen=True)
class BreakerSpec:
    """Per-replica circuit breaker driving health-aware routing."""

    window: int = spec_field(
        default=20, types=int, minimum=1, fuzz=(4, 32),
        doc="Trailing request outcomes tracked per replica.",
    )
    failure_ratio: float = spec_field(
        default=0.5, types=(int, float), minimum=0, exclusive_minimum=True,
        maximum=1.0, convert=float, fuzz=(0.2, 1.0),
        doc="Windowed failure fraction that opens the breaker.",
    )
    min_samples: int = spec_field(
        default=5, types=int, minimum=1, fuzz=(1, 8),
        doc="Outcomes needed in the window before the breaker may trip.",
    )
    cooldown_s: float = spec_field(
        default=30.0, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(1.0, 120.0),
        doc="Open duration before the breaker half-opens (seconds).",
    )
    half_open_probes: int = spec_field(
        default=2, types=int, minimum=1, fuzz=(1, 4),
        doc="Probe requests a half-open replica may receive.",
    )
    slow_latency_s: float | None = spec_field(
        default=None, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(0.5, 30.0),
        doc="Completions slower than this count as failures; omit so only "
            "deadline misses count.",
    )


@spec_model(error=ResilienceSpecError, path="resilience.degrade",
            title="resilience.degrade")
@dataclass(frozen=True)
class DegradationSpec:
    """Brownout tiers: shed background traffic under sustained pressure.

    Pressure is the mean waiting-queue depth per routable replica, sampled
    at every fleet submit; a tier engages only after ``sustain_s`` of
    continuous pressure and releases only after ``recover_s`` below its
    threshold (hysteresis).
    """

    depth_per_replica: float = spec_field(
        types=(int, float), minimum=0, exclusive_minimum=True, convert=float,
        fuzz=(1.0, 32.0),
        doc="Mean waiting-queue depth per replica that enters brownout "
            "tier 1 (prefetch and L3 publish traffic pause).",
    )
    shed_depth_per_replica: float | None = spec_field(
        default=None, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(2.0, 64.0),
        doc="Depth that enters tier 2 (low-priority tenants shed); omit to "
            "never shed.",
    )
    sustain_s: float = spec_field(
        default=10.0, types=(int, float), minimum=0, convert=float,
        fuzz=(0.0, 30.0),
        doc="How long pressure must persist before a tier engages (seconds).",
    )
    recover_s: float = spec_field(
        default=10.0, types=(int, float), minimum=0, convert=float,
        fuzz=(0.0, 30.0),
        doc="How long pressure must stay low before a tier releases (seconds).",
    )
    low_priority_tenants: tuple = spec_field(
        default=(), item_parser=lambda entry, path: _parse_tenant_name(entry, path),
        item_normalizer=lambda entry, path: _parse_tenant_name(entry, path),
        constraint_doc="array of tenant names",
        doc="Tenants shed first in tier 2 (by scenario tenant name).",
    )

    def __spec_validate__(self, path: str) -> None:
        if (self.shed_depth_per_replica is not None
                and self.shed_depth_per_replica < self.depth_per_replica):
            raise ResilienceSpecError(
                f"shed_depth_per_replica ({self.shed_depth_per_replica:g}) must "
                f"be >= depth_per_replica ({self.depth_per_replica:g})",
                path=f"{path}.shed_depth_per_replica",
            )


def _parse_tenant_name(entry, path: str) -> str:
    if not isinstance(entry, str) or not entry:
        raise ResilienceSpecError(
            f"tenant names must be non-empty strings, got {entry!r}", path=path
        )
    return entry


@spec_model(error=ResilienceSpecError, path="resilience", title="resilience")
@dataclass(frozen=True)
class ResilienceSpec:
    """One ``"resilience"`` config block (see ``docs/RESILIENCE.md``)."""

    version: int = spec_field(
        default=1, types=int, doc="Config format version.",
    )
    enabled: bool = spec_field(
        default=True, types=bool,
        doc="Master switch; false applies nothing, byte-identical to omission.",
    )
    seed: int = spec_field(
        default=0, types=int, minimum=0, fuzz=(0, 2**16),
        doc="Base seed the per-request retry-jitter streams derive from.",
    )
    deadline: DeadlineSpec | None = spec_field(
        default=None, model=DeadlineSpec,
        doc="Optional per-request deadlines.",
    )
    retry: RetrySpec | None = spec_field(
        default=None, model=RetrySpec,
        doc="Optional seeded retry/backoff policy for crash-evacuated work.",
    )
    hedge: HedgeSpec | None = spec_field(
        default=None, model=HedgeSpec,
        doc="Optional hedged-request policy.",
    )
    breaker: BreakerSpec | None = spec_field(
        default=None, model=BreakerSpec,
        doc="Optional per-replica circuit breaker (health-aware routing).",
    )
    degrade: DegradationSpec | None = spec_field(
        default=None, model=DegradationSpec,
        doc="Optional degraded-mode (brownout-tier) controller.",
    )

    @property
    def active(self) -> bool:
        """True when the block will actually change fleet behaviour; an
        inactive block is treated exactly like an absent one."""
        return self.enabled and any(
            policy is not None
            for policy in (self.deadline, self.retry, self.hedge,
                           self.breaker, self.degrade)
        )


@spec_model(error=ScenarioSpecError, path="tenants[]", title="tenants[]")
@dataclass(frozen=True)
class TenantModel:
    """One tenant of a multi-tenant scenario."""

    name: str = spec_field(
        types=str, doc="Tenant name (reports, user-id prefixes, metadata).",
    )
    workload: str = spec_field(
        types=str, doc="Registered workload name.",
    )
    workload_params: dict = spec_field(
        default={}, types=dict,
        constraint_doc="workload-specific keys",
        doc="Generator parameter overrides (e.g. ``num_users``).",
    )
    weight: float = spec_field(
        default=1.0, types=(int, float), minimum=0, exclusive_minimum=True,
        maximum=1.0, convert=float, fuzz=(0.25, 1.0),
        doc="Fraction of the tenant's generated trace to include, in (0, 1].",
    )
    slo_latency_s: float | None = spec_field(
        default=None, types=(int, float), minimum=0, exclusive_minimum=True,
        convert=float, fuzz=(0.5, 30.0),
        doc="Optional per-tenant latency SLO (seconds).",
    )
    arrival: str = spec_field(
        types=str, doc="Registered arrival-process name.",
    )
    arrival_params: dict = spec_field(
        default={}, types=dict,
        constraint_doc="arrival-specific keys",
        doc="Arrival-process parameters (e.g. ``rate``, ``burst_rate``).",
    )

    def __spec_validate__(self, path: str) -> None:
        if not self.name:
            raise ScenarioSpecError("tenant name must be non-empty",
                                    path=f"{path}.name")


def _parse_tenant(entry, path: str) -> TenantModel:
    return from_dict(TenantModel, entry, path=path)


def _normalize_tenant(entry, path: str) -> dict:
    return normalize(TenantModel, entry, path=path)


@spec_model(error=ScenarioSpecError, path="", title="scenario")
@dataclass(frozen=True)
class ScenarioModel:
    """One scenario document (see ``docs/SCENARIOS.md``)."""

    version: int = spec_field(
        default=1, types=int, doc="Config format version.",
    )
    name: str = spec_field(
        types=str, doc="Scenario name (reports, trace headers).",
    )
    engine: str = spec_field(
        default="prefillonly", types=str,
        doc="Registered engine spec every replica runs.",
    )
    setup: str = spec_field(
        default="h100", types=str,
        doc="Registered hardware setup replicas are provisioned on.",
    )
    replicas: int | None = spec_field(
        default=None, types=int, minimum=1, fuzz=(1, 4),
        doc="Replica count; omit for one replica per GPU of the setup.",
    )
    router: str = spec_field(
        default="user-id", types=str,
        doc="Routing policy (user-id | least-loaded | prefix-affinity).",
    )
    max_queue_depth: int | None = spec_field(
        default=None, types=int, minimum=1, fuzz=(1, 64),
        doc="Optional queue-depth admission control, per replica.",
    )
    autoscale: AutoscaleSpec | None = spec_field(
        default=None, model=AutoscaleSpec,
        doc="Optional reactive autoscaler.",
    )
    seed: int = spec_field(
        default=0, types=int, minimum=0, fuzz=(0, 2**16),
        doc="Master seed every tenant's default streams derive from.",
    )
    max_input_length: int | None = spec_field(
        default=None, types=int, minimum=1,
        doc="MIL override; defaults to the longest generated request.",
    )
    tenants: tuple = spec_field(
        default=(), item_parser=_parse_tenant, item_normalizer=_normalize_tenant,
        constraint_doc="array of tenants (>= 1 to run)",
        doc="The tenants whose mixed streams form the workload.",
    )
    kv_tiers: KVTiersSpec | None = spec_field(
        default=None, model=KVTiersSpec,
        doc="Optional tiered prefix cache (see ``docs/KV_TIERS.md``).",
    )
    faults: FaultsSpec | None = spec_field(
        default=None, model=FaultsSpec,
        doc="Optional chaos schedule (see ``docs/FAULTS.md``).",
    )
    shards: int = spec_field(
        default=1, types=int, minimum=1, fuzz=(1, 4),
        doc="Shard count for the sharded simulation engine "
            "(see ``docs/SHARDING.md``); results are byte-identical on any "
            "value.",
    )
    observability: ObservabilitySpec | None = spec_field(
        default=None, model=ObservabilitySpec,
        doc="Optional tracing & telemetry (see ``docs/OBSERVABILITY.md``).",
    )
    resilience: ResilienceSpec | None = spec_field(
        default=None, model=ResilienceSpec,
        doc="Optional resilience policies (see ``docs/RESILIENCE.md``).",
    )

    def __spec_validate__(self, path: str) -> None:
        prefix = f"{path}." if path else ""
        if not self.tenants:
            raise ScenarioSpecError(f"scenario {self.name!r} has no tenants",
                                    path=f"{prefix}tenants")
        names = [tenant.name for tenant in self.tenants]
        for index, name in enumerate(names):
            first = names.index(name)
            if first < index:
                raise ScenarioSpecError(
                    f"duplicate tenant name {name!r}; first used by tenants[{first}]",
                    path=f"{prefix}tenants[{index}].name",
                )
        # A misspelt low-priority tenant would otherwise never match a request
        # and silently disable shedding.
        degrade = self.resilience.degrade if self.resilience is not None else None
        if degrade is None:
            return
        for index, name in enumerate(degrade.low_priority_tenants):
            if name not in names:
                raise ScenarioSpecError(
                    f"unknown low-priority tenant {name!r}; scenario tenants: "
                    f"{', '.join(sorted(names))}",
                    path=f"{prefix}resilience.degrade.low_priority_tenants[{index}]",
                )


#: The models whose field tables ``docs/SPEC.md`` is generated from,
#: in document order.
DOCUMENTED_MODELS = (
    ScenarioModel,
    TenantModel,
    AutoscaleSpec,
    ObservabilitySpec,
    AlertRuleSpec,
    ResilienceSpec,
    DeadlineSpec,
    RetrySpec,
    HedgeSpec,
    BreakerSpec,
    DegradationSpec,
    KVTiersSpec,
    HostTierSpec,
    ClusterTierSpec,
    FaultsSpec,
    CrashEventSpec,
    RecoverEventSpec,
    SlowEventSpec,
    BrownoutEventSpec,
    OutageEventSpec,
    SpotPreemptEventSpec,
    GenerateSpec,
)
