"""The span tracer and time-series metrics recorder.

One :class:`TraceRecorder` observes one simulation run.  Every hook site in
the fleet, the engines, and the tier stores calls :meth:`TraceRecorder.emit`
unconditionally; when observability is disabled the fleet carries the
:data:`NULL_RECORDER` singleton instead, whose ``emit`` is a no-op — the
null-object pattern keeps the hook sites branch-free and the disabled path
behaviour-identical to a build without the subsystem.

Determinism model
-----------------

Span events are stored as ``(time, key, kind, attrs, seq)`` where ``key`` is
the replica's logical shard key (:data:`GLOBAL_KEY` for fleet-scoped events)
and ``seq`` is a per-``(key, kind)`` sequence number local to the recording
buffer.  The canonical export order is ``(time, key, kind_rank, seq)`` — the
``(time, key)`` order the fleet's event queue drains due replicas in, refined
by kind and sequence.  Because every event kind has a single origin (submit
and route always come from the coordinator, start and finish always from the
owning replica's engine), events tied on ``(time, key, kind)`` never split
across shard buffers, so sorting merged per-shard buffers reproduces the
unsharded recording byte for byte.

Metric samples are taken at simulated-time boundaries ``k * interval``
(``k >= 0``).  :meth:`TraceRecorder.maybe_sample` is called at the top of
every simulator loop iteration, *before* the event batch at ``now`` is
processed, and records every boundary ``b <= now`` not yet recorded — so the
sample at ``b`` reflects the state after all events strictly before ``b``.
Per-replica gauges and the engine-emitted counters depend only on the owning
shard's events, which makes per-shard self-sampling merge exactly to the
unsharded series (see :func:`merge_shard_payloads`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum

__all__ = [
    "GLOBAL_KEY",
    "KIND_ORDER",
    "DEFAULT_LATENCY_BUCKETS",
    "SNAPSHOT_ONLY_COUNTERS",
    "ObsConfig",
    "ObsData",
    "NullRecorder",
    "NULL_RECORDER",
    "TraceRecorder",
    "merge_shard_payloads",
]

#: The ``key`` of fleet-scoped annotation events (faults, autoscale actions,
#: admission sheds) — sorts before every replica key.
GLOBAL_KEY = -1

#: Canonical rank of each span kind within one ``(time, key)`` slot.  The
#: order follows a request's lifecycle, so a submit/route/start/finish chain
#: landing on one timestamp still reads in causal order.
KIND_ORDER = {
    "submit": 0,
    "route": 1,
    "retry": 2,
    "prefetch": 3,
    "start": 4,
    "tier_hit": 5,
    "peer_fetch": 6,
    "promote": 7,
    "demote": 8,
    "warm_restore": 9,
    "finish": 10,
    "shed": 11,
    "fault": 12,
    "scale": 13,
    "deadline_miss": 14,
    "hedge": 15,
    "breaker": 16,
    "degrade": 17,
}

#: Default request-latency histogram bucket upper edges (seconds).  A value
#: equal to an edge falls in that edge's bucket (Prometheus ``le`` semantics).
DEFAULT_LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: Counters kept out of the time series and reported only in the end-of-run
#: snapshot: they are bumped by the routing coordinator, which in decoupled
#: parallel shard mode pre-routes the whole stream before simulated time
#: starts — a trajectory for them would be mode-dependent, so none is kept.
#: (Every other fleet-scoped counter — sheds, retries, faults, scale events —
#: can only occur in configurations the decoupled mode refuses, so their
#: trajectories are mode-independent.)
SNAPSHOT_ONLY_COUNTERS = frozenset({"submitted_total", "routed_total"})


@dataclass(frozen=True)
class ObsConfig:
    """Runtime observability configuration (see the ``"observability"``
    scenario block in ``docs/SPEC.md``)."""

    enabled: bool = False
    spans: bool = True
    metrics: bool = True
    sample_interval_s: float = 1.0
    latency_buckets: tuple = DEFAULT_LATENCY_BUCKETS
    #: Burn-rate alert rules (:class:`repro.obs.analysis.AlertRule`) for the
    #: post-hoc ``prefillonly obs alerts`` evaluation.  The recorder itself
    #: never reads them — alerting is a pure read-side analysis, so carrying
    #: rules here cannot perturb a recording.
    alerts: tuple = ()


@dataclass(frozen=True)
class ObsData:
    """One run's frozen observability record, in canonical order.

    Attributes:
        config: The configuration the run recorded under.
        events: Span events as ``(time, key, kind, attrs, seq)`` tuples in
            canonical ``(time, key, kind_rank, seq)`` order.
        samples: Metric samples as ``(time, name, labels, value)`` tuples in
            ``(time, name, labels)`` order; ``labels`` is a sorted tuple of
            ``(label, value)`` pairs.
        counters: End-of-run counter snapshot as ``((name, labels), value)``
            pairs, sorted.
        hist_buckets / hist_counts / hist_sum / hist_count: The request
            latency histogram — bucket upper edges, per-bucket counts (one
            extra overflow bucket), the sum, and the observation count.
        replicas: ``(key, name)`` pairs of every replica that existed, sorted
            by key — the Chrome exporter's track list.
        end_time: The run's final simulated time.
        num_boundaries: Sample boundaries recorded (``k = 0 .. n-1``).
    """

    config: ObsConfig
    events: tuple = ()
    samples: tuple = ()
    counters: tuple = ()
    hist_buckets: tuple = DEFAULT_LATENCY_BUCKETS
    hist_counts: tuple = ()
    hist_sum: float = 0.0
    hist_count: int = 0
    replicas: tuple = ()
    end_time: float = 0.0
    num_boundaries: int = 0


def _event_sort_key(event):
    time, key, kind, _, seq = event
    return (time, key, KIND_ORDER.get(kind, len(KIND_ORDER)), seq)


def _sample_sort_key(sample):
    return (sample[0], sample[1], sample[2])


class NullRecorder:
    """The disabled-path recorder: every hook is a no-op.

    Hook sites never branch on whether observability is on — they call these
    methods unconditionally, and this object makes the calls free enough that
    the disabled path stays within the perf gate while remaining
    byte-identical in results.
    """

    enabled = False
    spans = False
    metrics = False
    now = 0.0

    def register_replica(self, key, name):
        pass

    def emit(self, time, key, kind, **attrs):
        pass

    def maybe_sample(self, now, gauges=None):
        pass

    def finalize(self, end_time):
        pass


#: The shared no-op recorder every fleet and engine defaults to.
NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Records one run's spans and metrics (see the module docstring).

    Args:
        config: The :class:`ObsConfig` to record under (``enabled`` is
            implied true — construct the recorder only for enabled runs).
        tenant_slos: Tenant name -> latency SLO (seconds) for the
            ``tenant_slo_ok_total`` attainment counter; tenants without an
            SLO only get ``tenant_finished_total``.
    """

    enabled = True

    def __init__(self, config: ObsConfig | None = None, *,
                 tenant_slos: dict | None = None):
        self.config = config if config is not None else ObsConfig(enabled=True)
        self.spans = self.config.spans
        self.metrics = self.config.metrics
        self.tenant_slos = dict(tenant_slos or {})
        #: Last simulated time a hook site reported; demotion events from
        #: un-timestamped eviction cascades borrow it (see
        #: ``repro.kvcache.tiers.store``).
        self.now = 0.0
        self.replica_names: dict[int, str] = {}
        self._events: list = []
        self._seq: dict = {}
        self._counters: dict = {}
        self._samples: list = []
        self._sample_k = 0
        self._hist_counts = [0] * (len(self.config.latency_buckets) + 1)
        #: Raw latency observations — the histogram sum is computed with
        #: ``math.fsum`` at freeze/merge time, which is exactly rounded and
        #: therefore independent of observation order, so sharded merges
        #: reproduce the unsharded sum bit for bit.
        self._latencies: list = []
        self._end_time = 0.0

    # ------------------------------------------------------------- recording

    def register_replica(self, key: int, name: str) -> None:
        """Name a replica key (Chrome track titles, counter labels)."""
        self.replica_names[key] = name

    def emit(self, time: float, key: int, kind: str, **attrs) -> None:
        """Record one span event and update its derived counters."""
        if time > self._end_time:
            self._end_time = time
        if self.spans:
            slot = (key, kind)
            seq = self._seq.get(slot, 0)
            self._seq[slot] = seq + 1
            self._events.append((time, key, kind, attrs, seq))
        if self.metrics:
            self._count(key, kind, attrs)

    def _inc(self, name: str, labels: tuple, amount) -> None:
        slot = (name, labels)
        self._counters[slot] = self._counters.get(slot, 0) + amount

    def _replica_label(self, key: int) -> tuple:
        return (("replica", self.replica_names.get(key, str(key))),)

    def _count(self, key: int, kind: str, attrs: dict) -> None:
        if kind == "finish":
            self._inc("finished_total", self._replica_label(key), 1)
            latency = attrs.get("latency_s", 0.0)
            tenant = attrs.get("tenant")
            if tenant is not None:
                self._inc("tenant_finished_total", (("tenant", tenant),), 1)
                slo = self.tenant_slos.get(tenant)
                if slo is not None:
                    # Increment by 0 on a miss so the counter exists from the
                    # first finish — an all-missed tenant reports attainment
                    # 0.0, not the no-SLO dash.
                    self._inc(
                        "tenant_slo_ok_total", (("tenant", tenant),),
                        1 if latency <= slo else 0,
                    )
            self._observe(latency)
        elif kind == "submit":
            self._inc("submitted_total", (), 1)
        elif kind == "route":
            self._inc("routed_total", self._replica_label(key), 1)
        elif kind == "shed":
            self._inc("shed_total", (), 1)
        elif kind == "retry":
            self._inc("retried_total", (), 1)
        elif kind == "fault":
            self._inc("faults_total", (("kind", attrs.get("fault", "unknown")),), 1)
        elif kind == "scale":
            self._inc(
                "scale_events_total",
                (("direction", attrs.get("direction", "unknown")),), 1,
            )
        elif kind == "tier_hit":
            host = attrs.get("host_tokens", 0)
            cluster = attrs.get("cluster_tokens", 0)
            if host:
                self._inc("tier_host_tokens_total", (), host)
            if cluster:
                self._inc("tier_cluster_tokens_total", (), cluster)
        elif kind == "promote":
            self._inc("tier_promoted_blocks_total", (), attrs.get("blocks", 1))
        elif kind == "demote":
            self._inc("tier_demoted_blocks_total", (), attrs.get("blocks", 1))
        elif kind == "prefetch":
            self._inc("tier_prefetched_blocks_total", (), attrs.get("blocks", 1))
        elif kind == "peer_fetch":
            self._inc("tier_peer_fetches_total", (), attrs.get("blocks", 1))
        elif kind == "warm_restore":
            self._inc("tier_warm_restored_blocks_total", (), attrs.get("blocks", 1))
        elif kind == "deadline_miss":
            self._inc("deadline_missed_total", (), 1)
        elif kind == "hedge":
            self._inc("hedges_total", (), 1)
        elif kind == "breaker":
            self._inc(
                "breaker_transitions_total",
                (("to", str(attrs.get("to", "unknown"))),), 1,
            )
        elif kind == "degrade":
            self._inc(
                "degrade_transitions_total",
                (("tier", str(attrs.get("to", "unknown"))),), 1,
            )

    def _observe(self, value: float) -> None:
        for index, edge in enumerate(self.config.latency_buckets):
            if value <= edge:
                self._hist_counts[index] += 1
                break
        else:
            self._hist_counts[-1] += 1
        self._latencies.append(value)

    # -------------------------------------------------------------- sampling

    def maybe_sample(self, now: float, gauges=None) -> None:
        """Record every unrecorded sample boundary ``<= now``.

        Call at the top of a simulator loop iteration, *before* processing
        the event batch at ``now``; ``gauges`` is a zero-argument callable
        returning ``(name, labels, value)`` rows, invoked once per boundary
        actually crossed.
        """
        if not self.metrics:
            return
        if now > self._end_time:
            self._end_time = now
        interval = self.config.sample_interval_s
        boundary = self._sample_k * interval
        while boundary <= now:
            self._record_boundary(boundary, gauges)
            self._sample_k += 1
            boundary = self._sample_k * interval

    def _record_boundary(self, boundary: float, gauges) -> None:
        if gauges is not None:
            for name, labels, value in gauges():
                self._samples.append((boundary, name, labels, value))
        for (name, labels), value in self._counters.items():
            if name not in SNAPSHOT_ONLY_COUNTERS:
                self._samples.append((boundary, name, labels, value))

    def finalize(self, end_time: float) -> None:
        """Close the run at ``end_time``, sampling any remaining boundary.

        A no-op when the loop already crossed every boundary; needed for
        zero-event runs (the ``k = 0`` boundary) and runs whose stream ends
        between boundaries.
        """
        if end_time > self._end_time:
            self._end_time = end_time
        self.maybe_sample(end_time)

    # --------------------------------------------------------------- results

    def freeze(self, end_time: float | None = None) -> ObsData:
        """Finalize and return the run's canonical :class:`ObsData`."""
        if end_time is not None:
            self.finalize(end_time)
        return ObsData(
            config=self.config,
            events=tuple(sorted(self._events, key=_event_sort_key)),
            samples=tuple(sorted(self._samples, key=_sample_sort_key)),
            counters=tuple(sorted(self._counters.items())),
            hist_buckets=tuple(self.config.latency_buckets),
            hist_counts=tuple(self._hist_counts),
            hist_sum=fsum(self._latencies),
            hist_count=len(self._latencies),
            replicas=tuple(sorted(self.replica_names.items())),
            end_time=self._end_time,
            num_boundaries=self._sample_k,
        )

    def payload(self) -> dict:
        """Picklable per-shard recording, merged by :func:`merge_shard_payloads`."""
        return {
            "events": list(self._events),
            "samples": list(self._samples),
            "counters": list(self._counters.items()),
            "hist_counts": list(self._hist_counts),
            "latencies": list(self._latencies),
            "replicas": sorted(self.replica_names.items()),
            "boundaries": self._sample_k,
            "end_time": self._end_time,
        }


def merge_shard_payloads(coordinator: TraceRecorder, payloads: list,
                         idle_replicas: list | None = None) -> ObsData:
    """Merge decoupled per-shard recordings into one canonical :class:`ObsData`.

    ``coordinator`` recorded the routing pre-pass (submit/route events plus
    their snapshot counters) and knows every replica's name; ``payloads`` are
    the shard recorders' :meth:`TraceRecorder.payload` dicts; ``idle_replicas``
    names the replicas of shards that received no arrivals and were never run.

    The merge reconstructs exactly what one global recorder would have
    produced:

    * events: concatenated and sorted into canonical order (single-origin
      kinds make the sort total — see the module docstring);
    * samples: each shard self-sampled up to its own last event, so shorter
      shards are *padded* up to the global last boundary with the shard's
      *final* state — end-of-run counter values and zero queue depth (a
      drained shard's state is frozen, and the pad must cover events landing
      between the shard's last boundary and its end time, which no shard
      sample reflects).  Idle replicas contribute all-zero queue-depth
      series, and same-``(time, name, labels)`` rows from different shards
      (per-tenant counters) are summed;
    * counters and the latency histogram: summed across the coordinator and
      every shard (the sum via ``math.fsum``, whose exact rounding makes the
      result independent of which shard observed which latency).
    """
    config = coordinator.config
    interval = config.sample_interval_s
    events = list(coordinator._events)
    counters: dict = dict(coordinator._counters)
    hist_counts = list(coordinator._hist_counts)
    latencies = list(coordinator._latencies)
    end_time = coordinator._end_time
    num_boundaries = coordinator._sample_k
    for payload in payloads:
        events.extend(tuple(event) for event in payload["events"])
        num_boundaries = max(num_boundaries, payload["boundaries"])
        end_time = max(end_time, payload["end_time"])
        for (name, labels), value in payload["counters"]:
            slot = (name, tuple(labels))
            counters[slot] = counters.get(slot, 0) + value
        for index, count in enumerate(payload["hist_counts"]):
            hist_counts[index] += count
        latencies.extend(payload["latencies"])

    merged_samples: dict = {}

    def add_sample(time, name, labels, value):
        slot = (time, name, labels)
        merged_samples[slot] = merged_samples.get(slot, 0) + value

    if config.metrics:
        for payload in payloads:
            for time, name, labels, value in payload["samples"]:
                add_sample(time, name, tuple(labels), value)
            # Pad the shard's series to the global boundary count with its
            # final state: counters at their end-of-run values, queue depths
            # at zero (the shard only stops once every queue has drained).
            pad: dict = {
                ("queue_depth", (("replica", name),)): 0
                for _key, name in payload["replicas"]
            }
            for (name, labels), value in payload["counters"]:
                if name not in SNAPSHOT_ONLY_COUNTERS:
                    pad[(name, tuple(labels))] = value
            for k in range(payload["boundaries"], num_boundaries):
                boundary = k * interval
                for (name, labels), value in pad.items():
                    add_sample(boundary, name, labels, value)
        for key, name in (idle_replicas or []):
            for k in range(num_boundaries):
                add_sample(k * interval, "queue_depth", (("replica", name),), 0)

    samples = [
        (time, name, labels, value)
        for (time, name, labels), value in merged_samples.items()
    ]
    return ObsData(
        config=config,
        events=tuple(sorted(events, key=_event_sort_key)),
        samples=tuple(sorted(samples, key=_sample_sort_key)),
        counters=tuple(sorted(counters.items())),
        hist_buckets=tuple(config.latency_buckets),
        hist_counts=tuple(hist_counts),
        hist_sum=fsum(latencies),
        hist_count=len(latencies),
        replicas=tuple(sorted(coordinator.replica_names.items())),
        end_time=end_time,
        num_boundaries=num_boundaries,
    )
