"""Tests for ``repro.obs.analysis`` — critical paths, run diffs, alerts.

The load-bearing guarantee is the **sum law**: every finished request's
phase decomposition (queue, retry wait, tier fetch, prefill, lost service)
sums to its end-to-end latency.  A hypothesis property pins it over fuzzed
scenarios — including retries, hedges, and deadline cancels — and a
cookbook-scenario test pins it on the chaos recording the CI ``obs`` job
exports.  The diff tests pin the two acceptance behaviours: same-seed
recordings diff to zero, and an injected slow-node fault ranks the affected
replica and phase first.  The CLI tests cover the ``--spans`` input paths
(plain file, ``.gz``, stdin) and the malformed-input exit-2 contract.
"""

from __future__ import annotations

import dataclasses
import gzip
import io
import json
from math import fsum
from pathlib import Path

import pytest
from hypothesis import assume, given, settings

from repro.cli import main
from repro.errors import ObsError, ScenarioSpecError
from repro.obs.analysis import (
    DEFAULT_ALERT_RULES,
    PHASES,
    AlertRule,
    decompose_requests,
    diff_runs,
    evaluate_alerts,
    top_exemplars,
)
from repro.obs.exporters import export_alerts, export_spans
from repro.obs.recorder import ObsConfig, ObsData
from repro.obs.schema import validate_json
from repro.simulation.scenario import (
    build_mix,
    load_scenario,
    run_scenario,
    scenario_from_dict,
)
from repro.spec.core import from_dict
from repro.spec.fuzz import scenario_configs
from repro.spec.models import AlertRuleSpec

fuzz_settings = settings.get_profile("fuzz-run")

REPO_ROOT = Path(__file__).parent.parent
SCENARIOS = REPO_ROOT / "examples" / "scenarios"

#: The diff acceptance pair: the same light two-replica workload, with the
#: candidate running replica 0 under a 3x slow fault for the whole run.  The
#: arrival rate is low enough that the slowdown shows up as service (prefill)
#: time rather than a queue backlog.
_DIFF_BASE = {
    "name": "diff-base",
    "replicas": 2,
    "router": "user-id",
    "seed": 7,
    "tenants": [{
        "name": "social",
        "workload": "post-recommendation",
        "workload_params": {"num_users": 6, "posts_per_user": 8},
        "slo_latency_s": 4.0,
        "arrival": "poisson",
        "arrival_params": {"rate": 0.3},
    }],
}


def _slow_variant() -> dict:
    config = json.loads(json.dumps(_DIFF_BASE))
    config["name"] = "diff-slow"
    config["faults"] = {"events": [{
        "kind": "slow", "replica": 0, "at": 0.0, "duration": 1000.0,
        "multiplier": 3.0,
    }]}
    return config


def _recorded(spec):
    """Run a scenario with recording force-enabled and return its ObsData."""
    spec = dataclasses.replace(spec, observability=ObsConfig(enabled=True))
    return run_scenario(spec).result.obs


_DATA_CACHE: dict = {}


def _cookbook_recording(stem: str) -> ObsData:
    if stem not in _DATA_CACHE:
        _DATA_CACHE[stem] = _recorded(load_scenario(SCENARIOS / f"{stem}.json"))
    return _DATA_CACHE[stem]


def _assert_sum_law(report) -> None:
    for request in report.requests:
        for phase, value in request.phases.items():
            assert value >= 0.0, (
                f"negative {phase} phase on request {request.request_id!r}"
            )
        assert set(request.phases) == set(PHASES)
        total = fsum(request.phases.values())
        assert abs(total - request.e2e_s) <= 1e-9, (
            f"request {request.request_id!r}: phases sum to {total!r}, "
            f"end-to-end latency is {request.e2e_s!r}"
        )


# ------------------------------------------------------- critical-path sums


def test_phase_decomposition_sums_on_chaos_cookbook():
    """Every finished chaos-run request decomposes exactly (crash retries,
    tier fetches, and warm restores included)."""
    report = decompose_requests(_cookbook_recording("chaos_tiered_recovery"))
    assert report.requests, "chaos scenario recorded no finished requests"
    _assert_sum_law(report)
    # The chaos schedule crashes a replica mid-run, so crash-evacuation
    # phases must actually appear in the decomposition.
    assert any(r.num_retries > 0 for r in report.requests)
    totals = report.phase_totals()
    assert totals["retry_wait"] > 0.0
    assert totals["tier_fetch"] > 0.0


@fuzz_settings
@given(config=scenario_configs())
def test_fuzzed_phase_decomposition_sums_to_e2e(config):
    """The sum law holds on random valid scenarios — including draws with
    retries, hedges, deadline cancels, sheds, and sharded execution."""
    spec = scenario_from_dict(config)
    assume(build_mix(spec).requests)
    data = _recorded(spec)
    report = decompose_requests(data)
    _assert_sum_law(report)
    # Conservation: every submitted request is finished, shed, or cancelled.
    submitted = sum(1 for _t, _k, kind, _a, _s in data.events
                    if kind == "submit")
    accounted = (len(report.requests) + report.num_shed
                 + report.num_deadline_missed)
    assert accounted == submitted


def test_top_exemplars_are_slowest_and_deterministic():
    report = decompose_requests(_cookbook_recording("chaos_tiered_recovery"))
    exemplars = top_exemplars(report, 5)
    assert len(exemplars) == min(5, len(report.requests))
    latencies = [e.e2e_s for e in exemplars]
    assert latencies == sorted(latencies, reverse=True)
    slowest = max(r.e2e_s for r in report.requests)
    assert exemplars[0].e2e_s == slowest
    assert top_exemplars(report, 5) == exemplars


# ------------------------------------------------------------------ run diff


def test_same_seed_recordings_diff_to_zero():
    spec = load_scenario(SCENARIOS / "chaos_tiered_recovery.json")
    diff = diff_runs(_recorded(spec), _recorded(spec))
    assert diff.is_zero
    assert all(row["delta"] == 0 for row in diff.headline)
    assert all(row["delta_s"] == 0 for row in diff.phases)


def test_slow_node_fault_ranks_affected_replica_and_phase_first():
    """The acceptance pair: a 3x slow fault on replica 0 must put that
    replica and the service (prefill) phase at the top of the ranking."""
    baseline = _recorded(scenario_from_dict(_DIFF_BASE))
    candidate = _recorded(scenario_from_dict(_slow_variant()))
    diff = diff_runs(baseline, candidate)
    assert not diff.is_zero
    assert diff.replicas[0]["replica"] == "prefillonly-0"
    assert diff.replicas[0]["delta_service_s"] > 0
    assert diff.phases[0]["phase"] == "prefill"
    assert diff.phases[0]["delta_s"] > 0


# -------------------------------------------------------------------- alerts


def test_burn_rate_alert_fires_and_resolves_on_synthetic_trace():
    """Hand-computed transitions: two SLO misses inside both windows fire
    the rule at the next boundary; the alert resolves once the short window
    drains."""
    def finish(time: float, latency: float):
        return (time, 0, "finish",
                {"request": int(time * 10), "latency_s": latency,
                 "tokens": 1, "tenant": "t"}, 0)

    data = ObsData(
        config=ObsConfig(enabled=True, sample_interval_s=1.0),
        events=(finish(0.25, 5.0), finish(0.5, 5.0), finish(6.5, 0.1)),
        end_time=10.0,
    )
    rule = AlertRule(name="r", objective=0.5, long_window_s=4.0,
                     short_window_s=1.0, burn_rate=1.5, severity="page")
    report = evaluate_alerts(data, (rule,), slos={"t": 1.0})
    transitions = [(e.time, e.state) for e in report.events]
    # Boundary 1: both misses are inside [long -4, short -1) windows; the
    # miss ratio is 1.0 against a 0.5 budget -> burn 2.0 >= 1.5, firing.
    # Boundary 2: the short window [1, 2) is empty -> burn 0, resolved.
    assert transitions == [(1.0, "firing"), (2.0, "resolved")]
    assert report.firing_at_end() == ()
    budget_row = report.budgets[0]
    assert budget_row["finished"] == 3
    assert budget_row["slo_misses"] == 2


def test_alert_evaluation_is_deterministic_and_schema_valid():
    spec = load_scenario(SCENARIOS / "chaos_resilience_policies.json")
    slos = {t.name: t.slo_latency_s for t in spec.tenants
            if t.slo_latency_s is not None}
    data = _recorded(spec)
    first = evaluate_alerts(data, DEFAULT_ALERT_RULES, slos=slos)
    second = evaluate_alerts(data, DEFAULT_ALERT_RULES, slos=slos)
    assert first == second
    assert first.events, "the resilience chaos run should trip an alert"
    export = export_alerts(first)
    assert export_alerts(second) == export
    schema = json.loads(
        (REPO_ROOT / "schemas" / "repro-alerts.schema.json").read_text()
    )
    for number, line in enumerate(export.splitlines(), start=1):
        validate_json(json.loads(line), schema, path=f"line {number}")


def test_alert_rule_naming_unknown_tenant_is_rejected():
    data = ObsData(config=ObsConfig(enabled=True), end_time=1.0)
    rule = AlertRule(name="r", tenant="nobody")
    with pytest.raises(ObsError, match="nobody"):
        evaluate_alerts(data, (rule,), slos={"t": 1.0})


def test_alert_rule_spec_cross_field_validation():
    with pytest.raises(ScenarioSpecError, match="short_window_s"):
        from_dict(AlertRuleSpec,
                  {"name": "r", "long_window_s": 5.0, "short_window_s": 5.0})
    with pytest.raises(ScenarioSpecError, match="objective"):
        from_dict(AlertRuleSpec, {"name": "r", "objective": 1.0})
    with pytest.raises(ScenarioSpecError, match="severity"):
        from_dict(AlertRuleSpec, {"name": "r", "severity": "sev1"})


def test_scenario_alert_rules_reach_the_compiled_obs_config():
    config = json.loads(json.dumps(_DIFF_BASE))
    config["observability"] = {
        "enabled": True,
        "alerts": [{"name": "mine", "objective": 0.9, "long_window_s": 8.0,
                    "short_window_s": 2.0, "burn_rate": 2.0,
                    "severity": "page"}],
    }
    spec = scenario_from_dict(config)
    assert [rule.name for rule in spec.observability.alerts] == ["mine"]
    assert spec.observability.alerts[0].severity == "page"


# ----------------------------------------------------------------------- CLI


def test_cli_diff_same_seed_spans_files_zero_delta(tmp_path, capsys):
    data = _cookbook_recording("steady_poisson")
    spans = export_spans(data)
    a = tmp_path / "a.spans.jsonl"
    a.write_text(spans, encoding="utf-8")
    b = tmp_path / "b.spans.jsonl.gz"
    with gzip.open(b, "wt", encoding="utf-8") as handle:
        handle.write(spans)
    assert main(["obs", "diff", str(a), str(b), "--fail-on-delta"]) == 0
    assert "zero delta" in capsys.readouterr().out


def test_cli_critical_path_reads_spans_from_stdin(tmp_path, capsys, monkeypatch):
    spans = export_spans(_cookbook_recording("steady_poisson"))
    monkeypatch.setattr("sys.stdin", io.StringIO(spans))
    assert main(["obs", "critical-path", "--spans", "-"]) == 0
    output = capsys.readouterr().out
    assert "Phase decomposition" in output
    assert "prefill" in output


def test_cli_exemplars_from_spans_file(tmp_path, capsys):
    spans_path = tmp_path / "run.spans.jsonl"
    spans_path.write_text(export_spans(_cookbook_recording("steady_poisson")),
                          encoding="utf-8")
    assert main(["obs", "exemplars", "--spans", str(spans_path),
                 "--top", "3"]) == 0
    assert "slowest exemplars" in capsys.readouterr().out


def test_cli_malformed_spans_exits_2_with_line_number(tmp_path, capsys):
    spans = export_spans(_cookbook_recording("steady_poisson"))
    lines = spans.splitlines()
    lines[3] = "{not json"
    bad = tmp_path / "bad.spans.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["obs", "critical-path", "--spans", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "prefillonly: error:" in err
    assert "line 4" in err


def test_cli_missing_spans_file_exits_2(capsys):
    assert main(["obs", "critical-path", "--spans", "/no/such/file"]) == 2
    assert "prefillonly: error:" in capsys.readouterr().err


def test_cli_critical_path_without_config_or_spans_exits_2(capsys):
    assert main(["obs", "critical-path"]) == 2
    assert "either --config" in capsys.readouterr().err


def test_cli_alerts_writes_schema_valid_export(tmp_path, capsys):
    out = tmp_path / "alerts.jsonl"
    spans_path = tmp_path / "run.spans.jsonl"
    spans_path.write_text(
        export_spans(_cookbook_recording("chaos_resilience_policies")),
        encoding="utf-8",
    )
    code = main([
        "obs", "alerts",
        "--config", str(SCENARIOS / "chaos_resilience_policies.json"),
        "--spans", str(spans_path), "--out", str(out),
    ])
    assert code == 0
    assert "Burn-rate rules" in capsys.readouterr().out
    schema = json.loads(
        (REPO_ROOT / "schemas" / "repro-alerts.schema.json").read_text()
    )
    lines = out.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["format"] == "repro-alerts/v1"
    for number, line in enumerate(lines, start=1):
        validate_json(json.loads(line), schema, path=f"line {number}")
