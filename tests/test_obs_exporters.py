"""Export-format contracts: spans round-trip, Chrome schema, Prometheus text.

Runs one small recorder by hand plus one real cookbook scenario, and checks
the three export formats against their stated contracts — including the
Chrome trace against the checked-in ``schemas/chrome-trace.schema.json``,
the same validation CI performs on a chaos scenario via ``make obs-check``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.errors import ObsError
from repro.obs.exporters import (
    export_chrome_trace,
    export_prometheus,
    export_spans,
    format_obs_summary,
    format_slo_report,
    parse_spans,
)
from repro.obs.recorder import GLOBAL_KEY, TraceRecorder
from repro.obs.schema import validate_json
from repro.simulation.scenario import load_scenario, run_scenario
from repro.spec.models import ObservabilitySpec

REPO = Path(__file__).parent.parent
CHROME_SCHEMA = json.loads(
    (REPO / "schemas" / "chrome-trace.schema.json").read_text(encoding="utf-8")
)


@pytest.fixture(scope="module")
def scenario_data():
    """One recorded cookbook run shared by the module's tests."""
    spec = load_scenario(REPO / "examples" / "scenarios" / "steady_poisson.json")
    spec = dataclasses.replace(spec, observability=ObservabilitySpec(enabled=True))
    return run_scenario(spec).result.obs


def small_data():
    recorder = TraceRecorder(ObservabilitySpec(enabled=True), tenant_slos={"gold": 1.0})
    recorder.register_replica(0, "replica-0")
    recorder.emit(0.0, GLOBAL_KEY, "submit", request=1)
    recorder.emit(0.0, 0, "route", request=1)
    recorder.emit(0.5, 0, "start", request=1)
    recorder.emit(1.5, 0, "finish", request=1, latency_s=1.5, tenant="gold")
    recorder.emit(2.0, GLOBAL_KEY, "shed", request=2)
    return recorder.freeze(2.0)


# ------------------------------------------------------------ repro-spans/v1


def test_spans_round_trip_byte_identical(scenario_data):
    text = export_spans(scenario_data)
    assert export_spans(parse_spans(text)) == text


def test_spans_header_carries_inventory():
    text = export_spans(small_data())
    header = json.loads(text.splitlines()[0])
    assert header["format"] == "repro-spans/v1"
    assert header["num_events"] == 5
    assert header["replicas"] == [[0, "replica-0"]]


def test_parse_spans_rejects_garbage():
    with pytest.raises(ObsError):
        parse_spans("")
    with pytest.raises(ObsError):
        parse_spans('{"format":"something-else/v9"}\n')
    good = export_spans(small_data())
    truncated = "\n".join(good.splitlines()[:-1]) + "\n"  # header count now lies
    with pytest.raises(ObsError):
        parse_spans(truncated)


# ------------------------------------------------------------- Chrome traces


def test_chrome_trace_validates_against_checked_in_schema(scenario_data):
    trace = json.loads(export_chrome_trace(scenario_data))
    validate_json(trace, CHROME_SCHEMA)


def test_chrome_trace_small_run_shape():
    trace = json.loads(export_chrome_trace(small_data()))
    validate_json(trace, CHROME_SCHEMA)
    events = trace["traceEvents"]
    # One metadata row per track: the fleet (pid 0) and replica-0 (pid 1).
    names = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    assert names[0] == "fleet"
    assert "replica-0" in names[1]
    # The queue span is an async b/e pair on the serving replica's track.
    queue = [e for e in events if e.get("name") == "queue"]
    assert [e["ph"] for e in queue] == ["b", "e"]
    assert all(e["pid"] == 1 and e["id"] == 1 for e in queue)
    # Service slice: starts at 0.5s = 500000us, lasts 1s = 1000000us.
    (service,) = [e for e in events if e.get("name") == "service"]
    assert service["ph"] == "X"
    assert service["ts"] == pytest.approx(500000.0)
    assert service["dur"] == pytest.approx(1000000.0)
    # The shed renders as an instant on the fleet track.
    (shed,) = [e for e in events if e.get("cat") == "shed"]
    assert shed["ph"] == "i" and shed["pid"] == 0


# ---------------------------------------------------------------- Prometheus


def test_prometheus_snapshot_text(scenario_data):
    text = export_prometheus(scenario_data)
    lines = text.splitlines()
    # Every metric family is announced before its rows.
    seen_types = set()
    for line in lines:
        if line.startswith("# TYPE"):
            seen_types.add(line.split()[2])
        elif not line.startswith("#"):
            family = line.split("{")[0].split(" ")[0]
            base = family
            for suffix in ("_bucket", "_sum", "_count"):
                if family.endswith(suffix):
                    base = family[: -len(suffix)]
            assert base in seen_types, line
    assert any(line.startswith("repro_finished_total") for line in lines)


def test_prometheus_histogram_is_cumulative():
    text = export_prometheus(small_data())
    buckets = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_request_latency_seconds_bucket")
    ]
    assert buckets == sorted(buckets)  # cumulative counts never decrease
    assert buckets[-1] == 1  # +Inf sees every observation
    assert "repro_request_latency_seconds_count 1" in text
    # latency 1.5 lands at the le="2.5" edge, not earlier.
    assert 'le="2.5"} 1' in text
    assert 'le="1.0"} 0' in text


# --------------------------------------------------------------- CLI reports


def test_obs_summary_mentions_inventory(scenario_data):
    text = format_obs_summary(scenario_data)
    assert "spans:" in text and "metrics:" in text
    assert "Span events by kind" in text
    assert "Counter snapshot" in text


def test_slo_report_attainment():
    recorder = TraceRecorder(ObservabilitySpec(enabled=True), tenant_slos={"gold": 1.0})
    recorder.register_replica(0, "r0")
    recorder.emit(1.0, 0, "finish", latency_s=0.5, tenant="gold")
    recorder.emit(2.0, 0, "finish", latency_s=1.5, tenant="gold")
    text = format_slo_report(recorder.freeze(2.0))
    assert "gold" in text
    assert "0.5" in text  # one of two gold finishes made the 1.0s SLO
    # A tenant that never lands within its SLO reports attainment 0.0 —
    # distinct from a tenant with no SLO, which shows a dash.
    missed = format_slo_report(small_data())
    assert "gold" in missed and "0.0" in missed
    empty = format_slo_report(
        TraceRecorder(ObservabilitySpec(enabled=True)).freeze(0.0)
    )
    assert empty == "no per-tenant completions recorded"
