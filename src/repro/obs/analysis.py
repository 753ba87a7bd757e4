"""Post-hoc trace analytics: critical paths, run diffs, and burn-rate alerts.

Everything in this module is a pure function of an already-recorded
:class:`~repro.obs.recorder.ObsData` (or of two of them) — the analysis layer
never touches a live simulation, so every PR-8 byte-identity and cross-shard
reproducibility contract is preserved by construction.  Three capabilities:

* **Critical-path decomposition** (:func:`decompose_requests`) — each
  finished request's lifecycle is rebuilt from its ``repro-spans/v1`` span
  chain and partitioned into disjoint phases (queue wait, retry backoff,
  tier fetch, prefill service, and work lost to crashed or hedged copies)
  whose durations provably sum to the request's end-to-end latency: the
  phases are labelled gaps between consecutive span timestamps, so the sum
  telescopes to ``finish - submit`` up to float rounding (pinned by a
  hypothesis property).
* **Run-diff forensics** (:func:`diff_runs`) — two recordings are decomposed
  and their latency/throughput difference is attributed to phases, replicas,
  and span kinds, ranked by contribution; identical recordings produce an
  all-zero diff (pinned by a test).
* **SLO error budgets & burn-rate alerts** (:func:`evaluate_alerts`) —
  multi-window burn-rate rules (Google SRE style: the alert fires only while
  *both* a long and a short window burn the error budget faster than the
  threshold) evaluated at the recorder's sample boundaries in simulated
  time, emitting deterministic firing/resolved events exported as
  ``repro-alerts/v1`` (see :func:`repro.obs.exporters.export_alerts`).

The ``prefillonly obs critical-path | diff | alerts | exemplars`` CLI family
surfaces all three; ``docs/OBSERVABILITY.md`` ("Analyzing traces") has worked
examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum

from repro.errors import ObsError
from repro.obs.recorder import ObsData
from repro.spec.models import AlertRuleSpec

__all__ = [
    "PHASES",
    "DEFAULT_ALERT_RULES",
    "RequestBreakdown",
    "CriticalPathReport",
    "RunDiff",
    "AlertEvent",
    "AlertReport",
    "decompose_requests",
    "top_exemplars",
    "diff_runs",
    "evaluate_alerts",
]

#: The disjoint phases a finished request's end-to-end latency decomposes
#: into, in lifecycle order.  ``tier_fetch`` + ``prefill`` together are the
#: winning copy's service window; ``lost_service`` is time only non-winning
#: copies (crashed originals, hedge losers) were running.
PHASES = ("queue", "retry_wait", "tier_fetch", "prefill", "lost_service")

#: Span kinds that mark per-request lifecycle progress (everything else is a
#: fleet/tier annotation the per-request walk ignores).
_LIFECYCLE_KINDS = frozenset({
    "submit", "route", "retry", "start", "hedge", "finish", "shed",
    "deadline_miss",
})


@dataclass(frozen=True)
class RequestBreakdown:
    """One finished request's phase decomposition.

    ``phases`` maps every name in :data:`PHASES` to non-negative seconds;
    ``fsum`` of the values equals ``e2e_s`` (= ``finish_time -
    submit_time``) up to float rounding — the invariant the hypothesis
    property in ``tests/test_obs_analysis.py`` pins over fuzzed scenarios.
    """

    request_id: object
    tenant: str | None
    replica: str
    submit_time: float
    finish_time: float
    phases: dict
    num_retries: int = 0
    num_hedges: int = 0

    @property
    def e2e_s(self) -> float:
        return self.finish_time - self.submit_time


@dataclass(frozen=True)
class CriticalPathReport:
    """Fleet/tenant/replica phase aggregation of one recording.

    Attributes:
        requests: Per-request breakdowns, in finish order.
        num_shed / num_deadline_missed: Requests that never finished (shed by
            admission or fleet-wide crash handling, or cancelled past their
            deadline) — accounted separately, since only finished requests
            have an end-to-end latency to decompose.
        end_time: The recording's final simulated time (throughput divisor).
    """

    requests: tuple
    num_shed: int
    num_deadline_missed: int
    end_time: float

    def phase_totals(self) -> dict:
        """Phase -> ``fsum`` of that phase over every finished request."""
        return {
            phase: fsum(request.phases[phase] for request in self.requests)
            for phase in PHASES
        }

    def phase_means(self) -> dict:
        """Phase -> mean seconds per finished request (zeros when empty)."""
        count = len(self.requests)
        totals = self.phase_totals()
        return {
            phase: (totals[phase] / count if count else 0.0)
            for phase in PHASES
        }

    def mean_e2e_s(self) -> float:
        if not self.requests:
            return 0.0
        return fsum(r.e2e_s for r in self.requests) / len(self.requests)

    def p99_e2e_s(self) -> float:
        if not self.requests:
            return 0.0
        latencies = sorted(r.e2e_s for r in self.requests)
        return latencies[min(len(latencies) - 1,
                             int(0.99 * (len(latencies) - 1)))]

    def throughput_rps(self) -> float:
        if self.end_time <= 0:
            return 0.0
        return len(self.requests) / self.end_time

    def by_tenant(self) -> dict:
        """Tenant -> (count, phase means) over that tenant's requests."""
        return _grouped(self.requests, lambda r: r.tenant or "-")

    def by_replica(self) -> dict:
        """Serving replica -> (count, phase means) over its requests."""
        return _grouped(self.requests, lambda r: r.replica)


def _grouped(requests, key) -> dict:
    groups: dict = {}
    for request in requests:
        groups.setdefault(key(request), []).append(request)
    return {
        name: (
            len(members),
            {
                phase: fsum(m.phases[phase] for m in members) / len(members)
                for phase in PHASES
            },
        )
        for name, members in sorted(groups.items())
    }


def decompose_requests(data: ObsData) -> CriticalPathReport:
    """Rebuild every request's lifecycle and decompose it into phases.

    The walk is a per-request state machine over the request's span events
    in canonical order.  Each gap between consecutive event timestamps gets
    exactly one label, so the labelled gaps partition ``[submit, finish]``:

    * ``service`` — from the winning copy's (the one that emitted ``finish``)
      last ``start`` to ``finish``; split into ``tier_fetch`` (the
      ``tier_hit`` load time sharing the start's ``(time, key)`` slot, which
      the engine charges into stage 0) and ``prefill`` (the rest);
    * ``lost_service`` — a non-winning copy (crashed original, hedge loser)
      was running;
    * ``retry_wait`` — after a crash evacuation (``retry``), before the
      replacement copy starts (covers the retry policy's backoff);
    * ``queue`` — nothing was running and no retry was pending.

    Requests without a ``finish`` are tallied as shed or deadline-missed.
    """
    per_request: dict = {}
    tier_loads: dict = {}
    order: list = []
    for event in data.events:
        time, key, kind, attrs, _seq = event
        if kind == "tier_hit":
            slot = (time, key)
            tier_loads[slot] = tier_loads.get(slot, 0.0) + attrs.get("load_s", 0.0)
            continue
        if kind not in _LIFECYCLE_KINDS:
            continue
        request_id = attrs.get("request")
        if request_id is None:
            continue
        if request_id not in per_request:
            per_request[request_id] = []
            order.append(request_id)
        per_request[request_id].append(event)

    breakdowns: list = []
    num_shed = 0
    num_deadline_missed = 0
    for request_id in order:
        events = per_request[request_id]
        outcome = _decompose_one(request_id, events, tier_loads, data)
        if outcome == "shed":
            num_shed += 1
        elif outcome == "deadline_miss":
            num_deadline_missed += 1
        elif outcome is not None:
            breakdowns.append(outcome)
    breakdowns.sort(key=lambda r: (r.finish_time, str(r.request_id)))
    return CriticalPathReport(
        requests=tuple(breakdowns),
        num_shed=num_shed,
        num_deadline_missed=num_deadline_missed,
        end_time=data.end_time,
    )


def _decompose_one(request_id, events, tier_loads, data: ObsData):
    """One request's breakdown, or ``"shed"`` / ``"deadline_miss"`` / None."""
    replica_names = dict(data.replicas)
    submit_time = None
    finish = None
    num_retries = 0
    num_hedges = 0
    for time, key, kind, attrs, _seq in events:
        if kind == "submit" and submit_time is None:
            submit_time = time
        elif kind == "retry":
            num_retries += 1
        elif kind == "hedge":
            num_hedges += 1
        elif kind == "finish" and finish is None:
            finish = (time, key, attrs)
    if finish is None:
        kinds = {event[2] for event in events}
        if "deadline_miss" in kinds:
            return "deadline_miss"
        if "shed" in kinds:
            return "shed"
        return None
    if submit_time is None:
        # A finish with no recorded submit (a truncated spans file); there is
        # no end-to-end interval to decompose.
        return None
    finish_time, win_key, finish_attrs = finish

    # The winning copy's service window: its last start at or before finish.
    winning_start = None
    for time, key, kind, _attrs, _seq in events:
        if kind == "start" and key == win_key and time <= finish_time:
            winning_start = time
    if winning_start is None:
        winning_start = finish_time  # defensive: no start recorded

    # Walk the gaps between consecutive event times, labelling each one.
    phases = {phase: [] for phase in PHASES}
    running = False      # a (non-winning-window) copy is in service
    retry_pending = False  # crash-evacuated, replacement not yet started
    previous = submit_time
    for time, key, kind, _attrs, _seq in events:
        time = min(time, finish_time)
        if time > previous:
            if previous >= winning_start:
                phases["prefill"].append(time - previous)
            elif running:
                phases["lost_service"].append(time - previous)
            elif retry_pending:
                phases["retry_wait"].append(time - previous)
            else:
                phases["queue"].append(time - previous)
            previous = time
        if kind == "start":
            running = True
            retry_pending = False
        elif kind == "retry":
            running = False
            retry_pending = True

    totals = {phase: fsum(values) for phase, values in phases.items()}
    # Split the winning service window: the tier load sharing the start's
    # (time, key) slot was charged into stage 0 by the engine, so it is a
    # sub-interval of service — carve it out of prefill, clipped.
    service = totals["prefill"]
    tier = min(tier_loads.get((winning_start, win_key), 0.0), service)
    totals["tier_fetch"] = tier
    totals["prefill"] = service - tier
    return RequestBreakdown(
        request_id=request_id,
        tenant=finish_attrs.get("tenant"),
        replica=replica_names.get(win_key, str(win_key)),
        submit_time=submit_time,
        finish_time=finish_time,
        phases=totals,
        num_retries=num_retries,
        num_hedges=num_hedges,
    )


def top_exemplars(report: CriticalPathReport, k: int = 5) -> tuple:
    """The ``k`` slowest finished requests — the exemplar traces to eyeball.

    Ties break on request id, so the selection is deterministic.
    """
    ranked = sorted(report.requests,
                    key=lambda r: (-r.e2e_s, str(r.request_id)))
    return tuple(ranked[:max(k, 0)])


# ------------------------------------------------------------------ run diff


@dataclass(frozen=True)
class RunDiff:
    """What changed between recording ``a`` and recording ``b``.

    Rows are ``dict``s ready for :func:`repro.analysis.reporting.format_table`;
    ``phases`` and ``replicas`` are ranked by absolute delta (largest first),
    so the first row names the dominant mover.  ``is_zero`` is True iff every
    tracked quantity is exactly equal — the contract for two same-seed
    recordings.
    """

    headline: tuple
    phases: tuple
    replicas: tuple
    kinds: tuple
    is_zero: bool


def diff_runs(a: ObsData, b: ObsData) -> RunDiff:
    """Attribute the latency/throughput delta between two recordings.

    ``a`` is the baseline, ``b`` the candidate; positive deltas mean ``b``
    is larger.  Phase attribution compares mean seconds-per-finished-request
    contributions, replica attribution compares per-replica finish counts
    and mean service (tier fetch + prefill) time, and span-kind attribution
    compares raw event counts.
    """
    path_a = decompose_requests(a)
    path_b = decompose_requests(b)

    headline = []
    for name, value_a, value_b in [
        ("finished", len(path_a.requests), len(path_b.requests)),
        ("shed", path_a.num_shed, path_b.num_shed),
        ("deadline_missed", path_a.num_deadline_missed,
         path_b.num_deadline_missed),
        ("mean_e2e_s", path_a.mean_e2e_s(), path_b.mean_e2e_s()),
        ("p99_e2e_s", path_a.p99_e2e_s(), path_b.p99_e2e_s()),
        ("throughput_rps", path_a.throughput_rps(), path_b.throughput_rps()),
        ("end_time_s", a.end_time, b.end_time),
    ]:
        headline.append({
            "metric": name, "baseline": value_a, "candidate": value_b,
            "delta": value_b - value_a,
        })

    means_a = path_a.phase_means()
    means_b = path_b.phase_means()
    phase_rows = [
        {
            "phase": phase,
            "baseline_mean_s": means_a[phase],
            "candidate_mean_s": means_b[phase],
            "delta_s": means_b[phase] - means_a[phase],
        }
        for phase in PHASES
    ]
    phase_rows.sort(key=lambda row: (-abs(row["delta_s"]), row["phase"]))

    replicas_a = path_a.by_replica()
    replicas_b = path_b.by_replica()
    replica_rows = []
    for name in sorted(set(replicas_a) | set(replicas_b)):
        count_a, phases_a = replicas_a.get(name, (0, None))
        count_b, phases_b = replicas_b.get(name, (0, None))
        service_a = (phases_a["tier_fetch"] + phases_a["prefill"]
                     if phases_a else 0.0)
        service_b = (phases_b["tier_fetch"] + phases_b["prefill"]
                     if phases_b else 0.0)
        replica_rows.append({
            "replica": name,
            "finished_delta": count_b - count_a,
            "baseline_mean_service_s": service_a,
            "candidate_mean_service_s": service_b,
            "delta_service_s": service_b - service_a,
        })
    replica_rows.sort(
        key=lambda row: (-abs(row["delta_service_s"]),
                         -abs(row["finished_delta"]), row["replica"])
    )

    def kind_counts(data: ObsData) -> dict:
        counts: dict = {}
        for _time, _key, kind, _attrs, _seq in data.events:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    counts_a = kind_counts(a)
    counts_b = kind_counts(b)
    kind_rows = [
        {
            "kind": kind,
            "baseline": counts_a.get(kind, 0),
            "candidate": counts_b.get(kind, 0),
            "delta": counts_b.get(kind, 0) - counts_a.get(kind, 0),
        }
        for kind in sorted(set(counts_a) | set(counts_b))
    ]

    is_zero = (
        all(row["delta"] == 0 for row in headline)
        and all(row["delta_s"] == 0 for row in phase_rows)
        and all(row["delta_service_s"] == 0 and row["finished_delta"] == 0
                for row in replica_rows)
        and all(row["delta"] == 0 for row in kind_rows)
    )
    return RunDiff(
        headline=tuple(headline),
        phases=tuple(phase_rows),
        replicas=tuple(replica_rows),
        kinds=tuple(kind_rows),
        is_zero=is_zero,
    )


# ---------------------------------------------------------- burn-rate alerts


#: The rules ``prefillonly obs alerts`` evaluates when the scenario's
#: ``"observability"`` block configures none — a fast/slow pair sized for
#: cookbook-scale runs (tens of simulated seconds, not SRE hours).
DEFAULT_ALERT_RULES = (
    AlertRuleSpec(name="fast-burn", objective=0.99, long_window_s=10.0,
                  short_window_s=2.0, burn_rate=14.4, severity="page"),
    AlertRuleSpec(name="slow-burn", objective=0.99, long_window_s=30.0,
                  short_window_s=6.0, burn_rate=6.0, severity="ticket"),
)


@dataclass(frozen=True)
class AlertEvent:
    """One deterministic alert transition at a sample boundary."""

    time: float
    rule: str
    tenant: str
    state: str  # "firing" | "resolved"
    severity: str
    burn_long: float
    burn_short: float


@dataclass(frozen=True)
class AlertReport:
    """The alert evaluation of one recording (``repro-alerts/v1`` payload).

    Attributes:
        rules: The rules evaluated, in evaluation order.
        events: Firing/resolved transitions in ``(time, rule, tenant)`` order.
        budgets: Per ``(rule, tenant)`` end-of-run budget rows: finished
            count, SLO misses, whole-run error ratio, and the fraction of the
            error budget consumed.
        interval_s: The boundary spacing the rules were evaluated on.
        end_time: The recording's final simulated time.
    """

    rules: tuple
    events: tuple
    budgets: tuple
    interval_s: float
    end_time: float

    def firing_at_end(self) -> tuple:
        """The ``(rule, tenant)`` pairs still firing at end of run."""
        state: dict = {}
        for event in self.events:
            state[(event.rule, event.tenant)] = event.state
        return tuple(sorted(
            pair for pair, last in state.items() if last == "firing"
        ))


def evaluate_alerts(data: ObsData, rules=DEFAULT_ALERT_RULES, *,
                    slos: dict | None = None,
                    interval_s: float | None = None) -> AlertReport:
    """Evaluate burn-rate rules over a recording, in simulated time.

    Args:
        data: The recording (a live run's ``ObsData`` or a parsed spans
            file — only ``finish`` events and ``end_time`` are read).
        rules: The :class:`~repro.spec.models.AlertRuleSpec` list; a rule
            with ``tenant=None`` applies to every tenant in ``slos``.
        slos: Tenant name -> latency SLO seconds (a finish is an SLO miss
            when ``latency_s`` exceeds it).  Tenants without an SLO are
            never evaluated.
        interval_s: Boundary spacing; defaults to the recording's
            ``sample_interval_s`` — the same ``k * interval`` grid the
            metric sampler uses, with each boundary reflecting finishes
            strictly before it.

    Raises:
        ObsError: if a rule names a tenant that has no SLO to evaluate.
    """
    slos = dict(slos or {})
    interval = interval_s if interval_s is not None else data.config.sample_interval_s
    if interval <= 0:
        raise ObsError(f"alert evaluation interval must be positive, got {interval!r}")

    finishes: dict = {}
    for time, _key, kind, attrs, _seq in data.events:
        if kind != "finish":
            continue
        tenant = attrs.get("tenant")
        if tenant is None or tenant not in slos:
            continue
        miss = attrs.get("latency_s", 0.0) > slos[tenant]
        finishes.setdefault(tenant, []).append((time, miss))

    pairs: list = []
    for rule in rules:
        if rule.tenant is not None:
            if rule.tenant not in slos:
                raise ObsError(
                    f"alert rule {rule.name!r} names tenant {rule.tenant!r}, "
                    f"which has no SLO in this scenario"
                )
            pairs.append((rule, rule.tenant))
        else:
            pairs.extend((rule, tenant) for tenant in sorted(slos))

    def burn(tenant: str, boundary: float, window: float,
             budget: float) -> float:
        total = misses = 0
        for time, miss in finishes.get(tenant, ()):
            if boundary - window <= time < boundary:
                total += 1
                misses += miss
        if total == 0:
            return 0.0
        return (misses / total) / budget

    events: list = []
    firing: dict = {}
    num_boundaries = int(data.end_time / interval) + 1
    for k in range(num_boundaries):
        boundary = k * interval
        for rule, tenant in pairs:
            budget = 1.0 - rule.objective
            burn_long = burn(tenant, boundary, rule.long_window_s, budget)
            burn_short = burn(tenant, boundary, rule.short_window_s, budget)
            now_firing = (burn_long >= rule.burn_rate
                          and burn_short >= rule.burn_rate)
            was_firing = firing.get((rule.name, tenant), False)
            if now_firing != was_firing:
                firing[(rule.name, tenant)] = now_firing
                events.append(AlertEvent(
                    time=boundary,
                    rule=rule.name,
                    tenant=tenant,
                    state="firing" if now_firing else "resolved",
                    severity=rule.severity,
                    burn_long=burn_long,
                    burn_short=burn_short,
                ))

    budgets = []
    for rule, tenant in pairs:
        rows = finishes.get(tenant, ())
        total = len(rows)
        misses = sum(miss for _time, miss in rows)
        error_ratio = misses / total if total else 0.0
        budget = 1.0 - rule.objective
        budgets.append({
            "rule": rule.name,
            "tenant": tenant,
            "finished": total,
            "slo_misses": misses,
            "error_ratio": error_ratio,
            "budget_consumed": error_ratio / budget if budget > 0 else 0.0,
        })
    events.sort(key=lambda e: (e.time, e.rule, e.tenant))
    return AlertReport(
        rules=tuple(rules),
        events=tuple(events),
        budgets=tuple(budgets),
        interval_s=interval,
        end_time=data.end_time,
    )
