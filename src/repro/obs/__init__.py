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

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.recorder": (
        "GLOBAL_KEY", "DEFAULT_LATENCY_BUCKETS", "ObsData", "NULL_RECORDER", "NullRecorder",
        "TraceRecorder",
    ),
    "repro.obs.exporters": (
        "SPANS_FORMAT", "ALERTS_FORMAT", "export_spans", "parse_spans", "export_alerts",
        "export_chrome_trace", "export_prometheus", "format_obs_summary", "format_slo_report",
    ),
    "repro.obs.analysis": (
        "PHASES", "DEFAULT_ALERT_RULES", "AlertEvent", "AlertReport", "CriticalPathReport",
        "RequestBreakdown", "RunDiff", "decompose_requests", "diff_runs", "evaluate_alerts",
        "top_exemplars",
    ),
})
