"""Deterministic tracing & telemetry for the simulated fleet.

``repro.obs`` is the observability layer of the reproduction: per-request
lifecycle spans recorded in *simulated time*, time-series metrics sampled on
a configurable simulated-time interval, exporters (``repro-spans/v1`` JSONL,
Chrome trace-event JSON, Prometheus text), and post-hoc trace analytics
(critical paths, run diffs, burn-rate alerts).  See ``docs/OBSERVABILITY.md``.

The hard contract mirrors the rest of the system: with observability
disabled (the default), simulation results are byte-identical to a build
without the subsystem; with it enabled, simulation results are *unchanged*
and the exports themselves are bit-reproducible across repeat runs, shard
counts, and worker pools.
"""

from repro.obs.recorder import (
    GLOBAL_KEY,
    DEFAULT_LATENCY_BUCKETS,
    ObsData,
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
)
from repro.obs.exporters import (
    SPANS_FORMAT,
    ALERTS_FORMAT,
    export_spans,
    parse_spans,
    export_alerts,
    export_chrome_trace,
    export_prometheus,
    format_obs_summary,
    format_slo_report,
)
from repro.obs.analysis import (
    PHASES,
    DEFAULT_ALERT_RULES,
    AlertEvent,
    AlertReport,
    CriticalPathReport,
    RequestBreakdown,
    RunDiff,
    decompose_requests,
    diff_runs,
    evaluate_alerts,
    top_exemplars,
)

__all__ = [
    "GLOBAL_KEY",
    "DEFAULT_LATENCY_BUCKETS",
    "ObsData",
    "NULL_RECORDER",
    "NullRecorder",
    "TraceRecorder",
    "SPANS_FORMAT",
    "ALERTS_FORMAT",
    "export_spans",
    "parse_spans",
    "export_alerts",
    "export_chrome_trace",
    "export_prometheus",
    "format_obs_summary",
    "format_slo_report",
    "PHASES",
    "DEFAULT_ALERT_RULES",
    "AlertEvent",
    "AlertReport",
    "CriticalPathReport",
    "RequestBreakdown",
    "RunDiff",
    "decompose_requests",
    "diff_runs",
    "evaluate_alerts",
    "top_exemplars",
]
