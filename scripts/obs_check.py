#!/usr/bin/env python
"""Observability export check (``make obs-check``, the CI ``obs`` job).

Three assertions, any failure exits non-zero:

1. **Exports validate** — runs one cookbook scenario with recording
   force-enabled (``chaos_tiered_recovery`` by default, so fault, retry,
   warm-restore, and tier events are all present), writes the Chrome trace
   and the Prometheus snapshot to ``--out``, and validates the trace against
   the checked-in ``schemas/chrome-trace.schema.json``.
2. **Spans round-trip** — the ``repro-spans/v1`` export parses back and
   re-exports byte-identically.
3. **Analysis layer** — a same-seed re-run diffs to zero
   (:func:`repro.obs.analysis.diff_runs`), every request's phase
   decomposition sums to its end-to-end latency, and the burn-rate alert
   evaluation of the resilience cookbook scenario exports a
   ``repro-alerts/v1`` document that validates line by line against the
   checked-in ``schemas/repro-alerts.schema.json``; the critical-path,
   diff, and alerts reports land in ``--out`` as CI artifacts.
4. **Disabled path is the seed** — every cookbook scenario, run *without*
   observability at shards 1 and 4, reproduces the golden fingerprints in
   ``tests/golden/cookbook_fingerprints.json`` bit for bit (recording is
   opt-in; a build that never enables it must be indistinguishable from one
   without the subsystem).

Run with::

    PYTHONPATH=src python scripts/obs_check.py            # full check
    PYTHONPATH=src python scripts/obs_check.py --skip-fingerprints
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from math import fsum  # noqa: E402

from repro.obs.analysis import (  # noqa: E402
    DEFAULT_ALERT_RULES,
    decompose_requests,
    diff_runs,
    evaluate_alerts,
)
from repro.obs.exporters import (  # noqa: E402
    export_alerts,
    export_chrome_trace,
    export_prometheus,
    export_spans,
    parse_spans,
)
from repro.obs.logging import LOG_LEVELS, configure, get_logger  # noqa: E402
from repro.obs.schema import validate_json  # noqa: E402
from repro.analysis.reporting import (  # noqa: E402
    format_alerts_report,
    format_critical_path_report,
    format_run_diff_report,
)
from repro.simulation.invariants import scenario_fingerprint  # noqa: E402
from repro.simulation.scenario import load_scenario, run_scenario  # noqa: E402
from repro.spec.models import ObservabilitySpec  # noqa: E402

logger = get_logger("scripts.obs_check")

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = REPO_ROOT / "examples" / "scenarios"
SCHEMA = REPO_ROOT / "schemas" / "chrome-trace.schema.json"
ALERTS_SCHEMA = REPO_ROOT / "schemas" / "repro-alerts.schema.json"
GOLDEN = REPO_ROOT / "tests" / "golden" / "cookbook_fingerprints.json"


def check_exports(scenario: str, out_dir: Path) -> None:
    """Export + validate the Chrome trace and Prometheus snapshot."""
    spec = load_scenario(SCENARIOS / f"{scenario}.json")
    spec = dataclasses.replace(spec, observability=ObservabilitySpec(enabled=True))
    data = run_scenario(spec).result.obs

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{scenario}.trace.json"
    trace_text = export_chrome_trace(data)
    trace_path.write_text(trace_text, encoding="utf-8")
    validate_json(json.loads(trace_text), json.loads(SCHEMA.read_text(encoding="utf-8")))
    logger.info("chrome trace validates against %s: %s",
                SCHEMA.relative_to(REPO_ROOT), trace_path)

    prom_path = out_dir / f"{scenario}.prom.txt"
    prom_path.write_text(export_prometheus(data), encoding="utf-8")
    logger.info("prometheus snapshot written: %s", prom_path)

    spans = export_spans(data)
    if export_spans(parse_spans(spans)) != spans:
        raise AssertionError("repro-spans/v1 export does not round-trip")
    (out_dir / f"{scenario}.spans.jsonl").write_text(spans, encoding="utf-8")
    logger.info("spans round-trip byte-identical (%d events)", len(data.events))


def check_analysis(scenario: str, alerts_scenario: str, out_dir: Path) -> None:
    """Same-seed zero diff, phase-sum invariant, and alert schema validation."""
    out_dir.mkdir(parents=True, exist_ok=True)

    spec = load_scenario(SCENARIOS / f"{scenario}.json")
    spec = dataclasses.replace(spec, observability=ObservabilitySpec(enabled=True))
    first = run_scenario(spec).result.obs
    second = run_scenario(spec).result.obs

    diff = diff_runs(first, second)
    (out_dir / f"{scenario}.diff.txt").write_text(
        format_run_diff_report(diff) + "\n", encoding="utf-8"
    )
    if not diff.is_zero:
        raise AssertionError(
            f"same-seed recordings of {scenario!r} do not diff to zero"
        )
    logger.info("same-seed diff is zero: %s", scenario)

    report = decompose_requests(first)
    for request in report.requests:
        total = fsum(request.phases.values())
        if abs(total - request.e2e_s) > 1e-9:
            raise AssertionError(
                f"phase decomposition of request {request.request_id!r} sums "
                f"to {total!r}, not its end-to-end latency {request.e2e_s!r}"
            )
    (out_dir / f"{scenario}.critical-path.txt").write_text(
        format_critical_path_report(report) + "\n", encoding="utf-8"
    )
    logger.info("phase decomposition sums to end-to-end latency "
                "(%d finished requests)", len(report.requests))

    alerts_spec = load_scenario(SCENARIOS / f"{alerts_scenario}.json")
    alerts_spec = dataclasses.replace(
        alerts_spec, observability=ObservabilitySpec(enabled=True)
    )
    alerts_data = run_scenario(alerts_spec).result.obs
    slos = {
        tenant.name: tenant.slo_latency_s for tenant in alerts_spec.tenants
        if tenant.slo_latency_s is not None
    }
    alert_report = evaluate_alerts(alerts_data, DEFAULT_ALERT_RULES, slos=slos)
    (out_dir / f"{alerts_scenario}.alerts.txt").write_text(
        format_alerts_report(alert_report) + "\n", encoding="utf-8"
    )
    export = export_alerts(alert_report)
    alerts_path = out_dir / f"{alerts_scenario}.alerts.jsonl"
    alerts_path.write_text(export, encoding="utf-8")
    schema = json.loads(ALERTS_SCHEMA.read_text(encoding="utf-8"))
    for number, line in enumerate(export.splitlines(), start=1):
        validate_json(json.loads(line), schema, path=f"line {number}")
    logger.info("repro-alerts/v1 validates against %s: %s (%d transitions)",
                ALERTS_SCHEMA.relative_to(REPO_ROOT), alerts_path,
                len(alert_report.events))


def check_fingerprints() -> list[str]:
    """Disabled-path fingerprints vs the golden seed file; returns mismatches."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    mismatches = []
    for path in sorted(SCENARIOS.glob("*.json")):
        for shards in (1, 4):
            key = f"{path.stem}@shards={shards}"
            spec = dataclasses.replace(load_scenario(path), shards=shards)
            fingerprint = json.loads(json.dumps(scenario_fingerprint(run_scenario(spec))))
            if golden.get(key) != fingerprint:
                mismatches.append(key)
                logger.error("fingerprint drifted from the seed: %s", key)
            else:
                logger.debug("fingerprint matches the seed: %s", key)
    return mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="chaos_tiered_recovery",
                        help="cookbook scenario stem to export (default: the "
                             "chaos one, so fault events are exercised)")
    parser.add_argument("--out", default="build/obs-exports",
                        help="directory the exports are written to (under the "
                             "gitignored build/ tree by default)")
    parser.add_argument("--alerts-scenario", default="chaos_resilience_policies",
                        help="cookbook scenario stem the burn-rate alert "
                             "evaluation runs on (default: the resilience "
                             "one, so SLO misses actually occur)")
    parser.add_argument("--skip-fingerprints", action="store_true",
                        help="skip the (slower) disabled-path fingerprint sweep")
    parser.add_argument("--log-level", default="info", choices=LOG_LEVELS)
    args = parser.parse_args(argv)
    configure(args.log_level)

    check_exports(args.scenario, Path(args.out))
    check_analysis(args.scenario, args.alerts_scenario, Path(args.out))
    if not args.skip_fingerprints:
        mismatches = check_fingerprints()
        if mismatches:
            logger.error("obs-check: %d fingerprint(s) drifted: %s",
                         len(mismatches), ", ".join(mismatches))
            return 1
    print("obs-check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
