"""Exporters for one run's :class:`~repro.obs.recorder.ObsData`.

Three formats, all bit-reproducible (same run, same bytes):

* ``repro-spans/v1`` — a versioned JSONL span format: one header line, then
  one canonical-order event per line.  :func:`parse_spans` round-trips —
  re-exporting a parsed file reproduces it byte for byte.
* Chrome trace-event JSON — loads in ``chrome://tracing`` and Perfetto.
  Replicas appear as processes (tracks): service time as complete (``X``)
  slices, queue wait as async (``b``/``e``) spans keyed by request id, and
  sheds / retries / faults / autoscale / tier traffic as instant events.
* Prometheus text exposition — the end-of-run counter snapshot, the request
  latency histogram (``le`` bucket semantics), and the final queue-depth
  gauges, all under the ``repro_`` metric prefix.

Schema: ``schemas/chrome-trace.schema.json`` pins the Chrome export's shape;
``scripts/obs_check.py`` validates every exported trace against it in CI.
"""

from __future__ import annotations

import json

from repro.errors import ObsError
from repro.obs.recorder import GLOBAL_KEY, ObsData
from repro.spec.models import ObservabilitySpec

__all__ = [
    "SPANS_FORMAT",
    "ALERTS_FORMAT",
    "export_spans",
    "parse_spans",
    "export_alerts",
    "export_chrome_trace",
    "export_prometheus",
    "format_obs_summary",
    "format_slo_report",
]

#: Version tag of the JSONL span format (the header line's ``"format"``).
SPANS_FORMAT = "repro-spans/v1"

#: Version tag of the JSONL alert-event format (the header line's ``"format"``).
#: Schema: ``schemas/repro-alerts.schema.json``; validated by
#: ``scripts/obs_check.py`` in CI.
ALERTS_FORMAT = "repro-alerts/v1"


def _dumps(payload) -> str:
    """Canonical JSON: sorted keys, no whitespace — byte-stable."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------ repro-spans/v1


def export_spans(data: ObsData) -> str:
    """Serialise the span events as ``repro-spans/v1`` JSONL."""
    lines = [_dumps({
        "format": SPANS_FORMAT,
        "end_time": data.end_time,
        "num_events": len(data.events),
        "replicas": [[key, name] for key, name in data.replicas],
    })]
    for time, key, kind, attrs, seq in data.events:
        lines.append(_dumps({
            "time": time, "key": key, "kind": kind, "seq": seq,
            "attrs": attrs,
        }))
    return "\n".join(lines) + "\n"


def parse_spans(text: str) -> ObsData:
    """Parse a ``repro-spans/v1`` document back into an :class:`ObsData`.

    Only the span-relevant fields are populated (events, replicas,
    ``end_time``); re-exporting the result reproduces the input byte for
    byte.

    Raises:
        ObsError: on a missing or mismatched header, or a malformed line.
    """
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ObsError("empty spans document")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ObsError(f"spans header is not valid JSON ({exc})") from None
    if not isinstance(header, dict) or header.get("format") != SPANS_FORMAT:
        raise ObsError(
            f"expected a {SPANS_FORMAT!r} header, got {lines[0][:80]!r}"
        )
    events = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            row = json.loads(line)
            events.append((
                row["time"], row["key"], row["kind"], row["attrs"], row["seq"],
            ))
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise ObsError(f"spans line {number} is malformed ({exc})") from None
    if len(events) != header.get("num_events"):
        raise ObsError(
            f"header promises {header.get('num_events')} events, "
            f"found {len(events)}"
        )
    return ObsData(
        config=ObservabilitySpec(enabled=True),
        events=tuple(events),
        replicas=tuple(
            (key, name) for key, name in header.get("replicas", [])
        ),
        end_time=header.get("end_time", 0.0),
    )


# ------------------------------------------------------------ repro-alerts/v1


def export_alerts(report) -> str:
    """Serialise an :class:`~repro.obs.analysis.AlertReport` as JSONL.

    ``repro-alerts/v1``: one header line (format tag, evaluation interval,
    the rules evaluated, end-of-run budget rows), then one firing/resolved
    transition per line in ``(time, rule, tenant)`` order.  Canonical JSON
    throughout, so the export is bit-reproducible.
    """
    lines = [_dumps({
        "format": ALERTS_FORMAT,
        "end_time": report.end_time,
        "interval_s": report.interval_s,
        "num_events": len(report.events),
        "rules": [
            {
                "name": rule.name,
                "objective": rule.objective,
                "long_window_s": rule.long_window_s,
                "short_window_s": rule.short_window_s,
                "burn_rate": rule.burn_rate,
                "severity": rule.severity,
                "tenant": rule.tenant,
            }
            for rule in report.rules
        ],
        "budgets": list(report.budgets),
    })]
    for event in report.events:
        lines.append(_dumps({
            "time": event.time,
            "rule": event.rule,
            "tenant": event.tenant,
            "state": event.state,
            "severity": event.severity,
            "burn_long": round(event.burn_long, 6),
            "burn_short": round(event.burn_short, 6),
        }))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- Chrome traces

#: Span kinds rendered as instant events on their replica's (or the fleet's)
#: track, with their display names.
_INSTANT_KINDS = {
    "shed": "shed",
    "retry": "retry",
    "fault": "fault",
    "scale": "autoscale",
    "tier_hit": "tier hit",
    "peer_fetch": "peer fetch",
    "promote": "promote",
    "demote": "demote",
    "prefetch": "prefetch",
    "warm_restore": "warm restore",
}


def _pid(key: int) -> int:
    """Track (process) id of a replica key; the fleet track is pid 0."""
    return key + 1


def _us(time: float) -> float:
    """Simulated seconds -> trace microseconds."""
    return time * 1e6


def export_chrome_trace(data: ObsData) -> str:
    """Serialise the run as Chrome trace-event JSON (Perfetto-loadable)."""
    trace_events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": _pid(GLOBAL_KEY), "tid": 0,
        "args": {"name": "fleet"},
    }]
    for key, name in data.replicas:
        trace_events.append({
            "name": "process_name", "ph": "M", "pid": _pid(key), "tid": 0,
            "args": {"name": f"replica {name}"},
        })
    submits: dict = {}
    starts: dict = {}
    for time, key, kind, attrs, seq in data.events:
        request = attrs.get("request")
        if kind == "submit":
            submits[request] = (time, key)
        elif kind == "start":
            starts[request] = (time, key)
            submitted = submits.pop(request, None)
            if submitted is not None:
                # The submit event lives on the fleet track (GLOBAL_KEY); the
                # async queue span must begin and end on the same pid to pair
                # up, so both halves go on the serving replica's track.
                submit_time, _submit_key = submitted
                trace_events.append({
                    "name": "queue", "cat": "request", "ph": "b",
                    "id": request, "pid": _pid(key), "tid": 0,
                    "ts": _us(submit_time), "args": {},
                })
                trace_events.append({
                    "name": "queue", "cat": "request", "ph": "e",
                    "id": request, "pid": _pid(key), "tid": 0,
                    "ts": _us(time), "args": {},
                })
        elif kind == "finish":
            started = starts.pop(request, None)
            if started is not None:
                start_time, start_key = started
                trace_events.append({
                    "name": "service", "cat": "request", "ph": "X",
                    "pid": _pid(start_key), "tid": 0,
                    "ts": _us(start_time),
                    "dur": _us(time - start_time),
                    "args": {
                        key_: value for key_, value in sorted(attrs.items())
                    },
                })
        elif kind in _INSTANT_KINDS:
            trace_events.append({
                "name": _INSTANT_KINDS[kind], "cat": kind, "ph": "i",
                "pid": _pid(key), "tid": 0, "ts": _us(time),
                "s": "g" if key == GLOBAL_KEY else "p",
                "args": {
                    key_: value for key_, value in sorted(attrs.items())
                },
            })
    return _dumps({
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"format": "repro-chrome-trace/v1"},
    }) + "\n"


# ---------------------------------------------------------------- Prometheus

_HELP = {
    "submitted_total": "Requests offered to the fleet.",
    "routed_total": "Requests dispatched, by chosen replica.",
    "finished_total": "Requests completed, by serving replica.",
    "shed_total": "Requests shed by admission control.",
    "retried_total": "Crash-evacuated requests re-routed.",
    "tenant_finished_total": "Requests completed, by tenant.",
    "tenant_slo_ok_total": "Completed requests within the tenant's SLO.",
    "faults_total": "Fault events applied, by kind.",
    "scale_events_total": "Autoscaler actions applied, by direction.",
    "tier_host_tokens_total": "Prefix tokens streamed from the host (L2) tier.",
    "tier_cluster_tokens_total": "Prefix tokens streamed from the cluster (L3) tier.",
    "tier_promoted_blocks_total": "Blocks promoted into GPU memory.",
    "tier_demoted_blocks_total": "Blocks demoted down the tier hierarchy.",
    "tier_prefetched_blocks_total": "Blocks prefetched on router hints.",
    "tier_peer_fetches_total": "Cluster-store blocks fetched from a peer owner.",
    "tier_warm_restored_blocks_total": "Blocks warm-restored into rebuilt replicas.",
}


def _number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _labels(labels: tuple) -> str:
    if not labels:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in labels)
    return "{" + body + "}"


def export_prometheus(data: ObsData) -> str:
    """Serialise the end-of-run metric snapshot as Prometheus text."""
    lines: list[str] = []
    by_name: dict = {}
    for (name, labels), value in data.counters:
        by_name.setdefault(name, []).append((labels, value))
    for name in sorted(by_name):
        lines.append(f"# HELP repro_{name} {_HELP.get(name, name)}")
        lines.append(f"# TYPE repro_{name} counter")
        for labels, value in sorted(by_name[name]):
            lines.append(f"repro_{name}{_labels(labels)} {_number(value)}")
    gauges: dict = {}
    for time, name, labels, value in data.samples:
        if name == "queue_depth":
            gauges[labels] = value
    if gauges:
        lines.append("# HELP repro_queue_depth Final sampled per-replica queue depth.")
        lines.append("# TYPE repro_queue_depth gauge")
        for labels, value in sorted(gauges.items()):
            lines.append(f"repro_queue_depth{_labels(labels)} {_number(value)}")
    if data.hist_count or data.hist_counts:
        lines.append(
            "# HELP repro_request_latency_seconds Request latency (simulated seconds)."
        )
        lines.append("# TYPE repro_request_latency_seconds histogram")
        cumulative = 0
        for edge, count in zip(data.hist_buckets, data.hist_counts):
            cumulative += count
            lines.append(
                f'repro_request_latency_seconds_bucket{{le="{_number(float(edge))}"}} '
                f"{cumulative}"
            )
        cumulative += data.hist_counts[-1] if data.hist_counts else 0
        lines.append(
            f'repro_request_latency_seconds_bucket{{le="+Inf"}} {cumulative}'
        )
        lines.append(
            f"repro_request_latency_seconds_sum {_number(float(data.hist_sum))}"
        )
        lines.append(f"repro_request_latency_seconds_count {data.hist_count}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- CLI reports


def format_obs_summary(data: ObsData) -> str:
    """Human-readable overview of one run's recording (CLI output)."""
    from repro.analysis.reporting import format_table

    kinds: dict = {}
    for _, _, kind, _, _ in data.events:
        kinds[kind] = kinds.get(kind, 0) + 1
    sections = [
        f"spans: {len(data.events)} events, {len(data.replicas)} replicas, "
        f"end_time={data.end_time:.3f}s",
        f"metrics: {len(data.samples)} samples over {data.num_boundaries} "
        f"boundaries (interval={data.config.sample_interval_s:g}s)",
    ]
    if kinds:
        sections.append(format_table(
            [{"kind": kind, "events": count} for kind, count in sorted(kinds.items())],
            title="Span events by kind",
        ))
    if data.counters:
        sections.append(format_table(
            [
                {
                    "counter": name,
                    "labels": _labels(labels) or "-",
                    "value": value,
                }
                for (name, labels), value in data.counters
            ],
            title="Counter snapshot",
        ))
    return "\n\n".join(sections)


def format_slo_report(data: ObsData) -> str:
    """Per-tenant SLO attainment from the counter snapshot (CLI output)."""
    from repro.analysis.reporting import format_table

    finished: dict = {}
    ok: dict = {}
    for (name, labels), value in data.counters:
        if name == "tenant_finished_total":
            finished[dict(labels)["tenant"]] = value
        elif name == "tenant_slo_ok_total":
            ok[dict(labels)["tenant"]] = value
    if not finished:
        return "no per-tenant completions recorded"
    rows = []
    for tenant in sorted(finished):
        within = ok.get(tenant)
        rows.append({
            "tenant": tenant,
            "finished": finished[tenant],
            "slo_ok": within if within is not None else "-",
            "attainment": (
                round(within / finished[tenant], 3)
                if within is not None and finished[tenant] else "-"
            ),
        })
    return format_table(rows, title="Per-tenant SLO attainment")
