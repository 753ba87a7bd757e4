"""Golden-pins for the plain-text report formatters.

Each report renders a deterministic cookbook scenario and is compared byte
for byte against a checked-in golden file — so an accidental formatting or
metric change in ``repro.analysis.reporting`` shows up as a readable diff of
the report itself, not a downstream test failure.

To regenerate after an *intentional* change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_reporting_golden.py -q

then review the diff of ``tests/golden/reports/`` like any other code change.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest

from repro.analysis.reporting import (
    format_alerts_report,
    format_critical_path_report,
    format_fleet_report,
    format_resilience_report,
    format_run_diff_report,
    format_scenario_report,
    format_tier_report,
)
from repro.obs.analysis import (
    DEFAULT_ALERT_RULES,
    decompose_requests,
    diff_runs,
    evaluate_alerts,
)
from repro.simulation.scenario import load_scenario, run_scenario
from repro.spec.models import ObservabilitySpec

SCENARIOS = Path(__file__).parent.parent / "examples" / "scenarios"
GOLDEN_DIR = Path(__file__).parent / "golden" / "reports"

_RESULTS: dict = {}


def _scenario_result(stem: str):
    """One cached scenario run per module — reports share the runs."""
    if stem not in _RESULTS:
        _RESULTS[stem] = run_scenario(load_scenario(SCENARIOS / f"{stem}.json"))
    return _RESULTS[stem]


def _recorded(stem: str):
    """A cached *recorded* run (observability forced on) of a cookbook scenario."""
    key = f"obs:{stem}"
    if key not in _RESULTS:
        spec = dataclasses.replace(
            load_scenario(SCENARIOS / f"{stem}.json"),
            observability=ObservabilitySpec(enabled=True),
        )
        _RESULTS[key] = run_scenario(spec)
    return _RESULTS[key]


def _check_golden(name: str, text: str) -> None:
    golden = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("REPRO_UPDATE_GOLDENS") == "1":
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(text, encoding="utf-8")
        return
    if not golden.exists():
        pytest.fail(
            f"golden file missing: {golden}; generate it with "
            "REPRO_UPDATE_GOLDENS=1"
        )
    assert text == golden.read_text(encoding="utf-8"), (
        f"{name} report drifted from {golden}; if the change is intentional, "
        "regenerate with REPRO_UPDATE_GOLDENS=1 and review the diff"
    )


def test_fleet_report_golden():
    result = _scenario_result("steady_poisson")
    _check_golden("fleet_steady_poisson", format_fleet_report(result.result) + "\n")


def test_scenario_report_golden():
    result = _scenario_result("bursty_mix")
    _check_golden("scenario_bursty_mix", format_scenario_report(result) + "\n")


def test_scenario_report_chaos_golden():
    """The full scenario report of a chaos + tiers run — every section at once."""
    result = _scenario_result("chaos_tiered_recovery")
    _check_golden(
        "scenario_chaos_tiered_recovery", format_scenario_report(result) + "\n"
    )


def test_tier_report_golden():
    result = _scenario_result("chaos_tiered_recovery")
    tiers = result.result.fleet.tiers
    assert tiers is not None
    _check_golden("tier_chaos_tiered_recovery", format_tier_report(tiers) + "\n")


def test_resilience_report_golden():
    result = _scenario_result("chaos_tiered_recovery")
    resilience = result.result.fleet.resilience
    assert resilience is not None
    _check_golden(
        "resilience_chaos_tiered_recovery",
        format_resilience_report(resilience) + "\n",
    )


def test_critical_path_report_golden():
    """Critical-path decomposition of the chaos + tiers recording."""
    data = _recorded("chaos_tiered_recovery").result.obs
    report = decompose_requests(data)
    _check_golden(
        "critical_path_chaos_tiered_recovery",
        format_critical_path_report(report) + "\n",
    )


def test_run_diff_report_golden():
    """Run diff between two *different* cookbook recordings — every section
    (headline, phases, replicas, span kinds) has non-zero rows to pin."""
    diff = diff_runs(
        _recorded("steady_poisson").result.obs,
        _recorded("bursty_mix").result.obs,
    )
    _check_golden(
        "run_diff_steady_vs_bursty", format_run_diff_report(diff) + "\n"
    )


def test_alerts_report_golden():
    """Burn-rate alerts over the resilience cookbook scenario, default rules."""
    result = _recorded("chaos_resilience_policies")
    slos = {
        tenant.name: tenant.slo_latency_s
        for tenant in result.spec.tenants
        if tenant.slo_latency_s is not None
    }
    report = evaluate_alerts(
        result.result.obs, DEFAULT_ALERT_RULES, slos=slos
    )
    _check_golden(
        "alerts_chaos_resilience_policies", format_alerts_report(report) + "\n"
    )
