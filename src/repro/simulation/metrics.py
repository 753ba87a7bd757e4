"""Latency / throughput / cache-hit summaries of simulation results.

The paper reports mean latency, P99 latency, request throughput, and prefix
cache hit behaviour.  :func:`summarize_finished` turns a list of
:class:`~repro.core.engine.FinishedRequest` records into exactly those numbers.
For fleet runs, :func:`summarize_fleet` adds the cluster-level view on top:
per-replica utilisation, cross-replica cache-hit variance, load shedding, and
scale events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.engine import FinishedRequest


def sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """Percentile (``q`` in [0, 100]) of the non-empty ascending ``ordered``.

    Computed exactly as numpy's default (``linear``) :func:`numpy.percentile`
    does, bit for bit, without calling numpy: ``np.percentile`` reaches
    ``np.unique``, whose first call imports ``numpy.ma``.
    """
    count = len(ordered)
    position = (count - 1) * (q / 100.0)
    index = math.floor(position)
    gamma = position - index
    low = ordered[index]
    high = ordered[min(index + 1, count - 1)]
    step = high - low
    # numpy's lerp: from the nearer end, so the weight applied is <= 0.5.
    if gamma >= 0.5:
        return high - step * (1 - gamma)
    return low + step * gamma


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        return 0.0
    return sorted_percentile(sorted(values), q)


@dataclass(frozen=True)
class LatencySummary:
    """Aggregate statistics of one simulation run."""

    num_requests: int
    num_rejected: int
    mean_latency: float
    p50_latency: float
    p90_latency: float
    p99_latency: float
    max_latency: float
    mean_queueing_time: float
    mean_execution_time: float
    throughput_rps: float
    makespan: float
    cache_hit_rate: float
    token_hit_rate: float

    def as_dict(self) -> dict:
        """Plain-dict view for report tables."""
        return {
            "num_requests": self.num_requests,
            "num_rejected": self.num_rejected,
            "mean_latency_s": round(self.mean_latency, 3),
            "p50_latency_s": round(self.p50_latency, 3),
            "p90_latency_s": round(self.p90_latency, 3),
            "p99_latency_s": round(self.p99_latency, 3),
            "max_latency_s": round(self.max_latency, 3),
            "mean_queueing_s": round(self.mean_queueing_time, 3),
            "mean_execution_s": round(self.mean_execution_time, 3),
            "throughput_rps": round(self.throughput_rps, 3),
            "makespan_s": round(self.makespan, 3),
            "cache_hit_rate": round(self.cache_hit_rate, 3),
            "token_hit_rate": round(self.token_hit_rate, 3),
        }


def summarize_finished(finished: list[FinishedRequest],
                       rejected: list[FinishedRequest] | None = None) -> LatencySummary:
    """Summarise completion records into the paper's reporting metrics.

    Throughput is completed requests divided by the makespan (first arrival to
    last completion), matching how the paper derives requests-per-second from a
    trace replay.
    """
    rejected = rejected or []
    if not finished:
        return LatencySummary(
            num_requests=0,
            num_rejected=len(rejected),
            mean_latency=0.0,
            p50_latency=0.0,
            p90_latency=0.0,
            p99_latency=0.0,
            max_latency=0.0,
            mean_queueing_time=0.0,
            mean_execution_time=0.0,
            throughput_rps=0.0,
            makespan=0.0,
            cache_hit_rate=0.0,
            token_hit_rate=0.0,
        )
    latencies = [record.latency for record in finished]
    queueing = [record.queueing_time for record in finished]
    execution = [record.execution_time for record in finished]
    first_arrival = min(record.arrival_time for record in finished)
    last_finish = max(record.finish_time for record in finished)
    makespan = max(last_finish - first_arrival, 1e-12)
    total_tokens = sum(record.num_tokens for record in finished)
    hit_tokens = sum(record.cached_tokens for record in finished)
    return LatencySummary(
        num_requests=len(finished),
        num_rejected=len(rejected),
        mean_latency=float(np.mean(latencies)),
        p50_latency=percentile(latencies, 50),
        p90_latency=percentile(latencies, 90),
        p99_latency=percentile(latencies, 99),
        max_latency=float(np.max(latencies)),
        mean_queueing_time=float(np.mean(queueing)),
        mean_execution_time=float(np.mean(execution)),
        throughput_rps=len(finished) / makespan,
        makespan=makespan,
        cache_hit_rate=sum(1 for r in finished if r.had_cache_hit) / len(finished),
        token_hit_rate=hit_tokens / total_tokens if total_tokens else 0.0,
    )


@dataclass(frozen=True)
class TierSummary:
    """Per-tier hit and transfer accounting of one tiered run.

    Token counts classify every prefix token a request brought to execution:
    served from the GPU radix tree (free), streamed from the host tier
    (charged through the host link), streamed from the cluster-shared tier
    (charged through the cluster link), or recomputed (a miss everywhere).

    Attributes:
        tokens_total: All input tokens across all requests.
        tokens_hit_gpu: Tokens served from L1.
        tokens_hit_host: Tokens streamed from the host (L2) tier.
        tokens_hit_cluster: Tokens streamed from the cluster (L3) tier.
        promoted_blocks / demoted_blocks / prefetched_blocks / dropped_blocks:
            Block movement between tiers, summed over replicas.
        bytes_up / bytes_down: Transfer volume toward / away from the GPU.
        load_seconds: Transfer time charged to requests (fetch at execution).
        prefetch_seconds / demote_seconds: Background transfer time (not
            charged to any request; overlaps queueing / compute).
        cluster: ``ClusterStoreStats`` fields of the shared store (publishes,
            fetches, peer fetches, per-replica hits), or None without an L3.
    """

    tokens_total: int
    tokens_hit_gpu: int
    tokens_hit_host: int
    tokens_hit_cluster: int
    promoted_blocks: int
    demoted_blocks: int
    prefetched_blocks: int
    dropped_blocks: int
    bytes_up: int
    bytes_down: int
    load_seconds: float
    prefetch_seconds: float
    demote_seconds: float
    cluster: dict | None = None

    def _rate(self, tokens: int) -> float:
        return tokens / self.tokens_total if self.tokens_total else 0.0

    @property
    def gpu_hit_rate(self) -> float:
        return self._rate(self.tokens_hit_gpu)

    @property
    def host_hit_rate(self) -> float:
        return self._rate(self.tokens_hit_host)

    @property
    def cluster_hit_rate(self) -> float:
        return self._rate(self.tokens_hit_cluster)

    @property
    def tier_hit_rate(self) -> float:
        """Fraction of tokens served anywhere in the hierarchy."""
        return self._rate(
            self.tokens_hit_gpu + self.tokens_hit_host + self.tokens_hit_cluster
        )

    def as_dict(self) -> dict:
        """Scalar view for report tables."""
        return {
            "gpu_hit_rate": round(self.gpu_hit_rate, 3),
            "host_hit_rate": round(self.host_hit_rate, 3),
            "cluster_hit_rate": round(self.cluster_hit_rate, 3),
            "tier_hit_rate": round(self.tier_hit_rate, 3),
            "promoted_blocks": self.promoted_blocks,
            "demoted_blocks": self.demoted_blocks,
            "prefetched_blocks": self.prefetched_blocks,
            "dropped_blocks": self.dropped_blocks,
            "bytes_up": self.bytes_up,
            "bytes_down": self.bytes_down,
            "load_s": round(self.load_seconds, 4),
        }


def summarize_tiers(cache_stats: list, cluster_stats=None) -> TierSummary:
    """Aggregate per-replica tier counters into one :class:`TierSummary`.

    Args:
        cache_stats: One :class:`~repro.kvcache.manager.CacheStats` per
            replica (replicas without tier stats contribute only their token
            totals).
        cluster_stats: The shared store's
            :class:`~repro.kvcache.tiers.cluster_store.ClusterStoreStats`,
            or None when the fleet runs without an L3.
    """
    totals = {
        "promoted_blocks": 0, "demoted_blocks": 0, "prefetched_blocks": 0,
        "dropped_blocks": 0, "bytes_up": 0, "bytes_down": 0,
        "load_seconds": 0.0, "prefetch_seconds": 0.0, "demote_seconds": 0.0,
    }
    tokens_total = tokens_gpu = tokens_host = tokens_cluster = 0
    for stats in cache_stats:
        tokens_total += stats.tokens_total
        tokens_gpu += stats.tokens_hit
        tier = stats.tier_stats
        if tier is None:
            continue
        tokens_host += tier.get("tokens_hit_host", 0)
        tokens_cluster += tier.get("tokens_hit_cluster", 0)
        for key in totals:
            totals[key] += tier.get(key, 0)
    return TierSummary(
        tokens_total=tokens_total,
        tokens_hit_gpu=tokens_gpu,
        tokens_hit_host=tokens_host,
        tokens_hit_cluster=tokens_cluster,
        cluster=dict(cluster_stats.__dict__) if cluster_stats is not None else None,
        **totals,
    )


@dataclass(frozen=True)
class ResilienceSummary:
    """Fault / recovery accounting of one chaos run.

    Only produced when a fault schedule was actually injected, so summaries
    (and their report rows) of fault-free runs are unchanged.

    Attributes:
        num_faults: Fault events delivered and applied.
        num_faults_skipped: Delivered events that found nothing to act on
            (e.g. a crash targeting an already-crashed replica).
        num_crashes / num_recoveries: Applied replica kills and rebuilds.
        num_slow_events / num_brownouts / num_outages: Applied degradation
            windows (slow nodes, interconnect brownouts, L3 outages).
        mean_mttr_s: Mean crash-to-recover time over completed repairs
            (0 when no crash was ever repaired).
        num_retried: Requests evacuated from crashed replicas and re-routed.
        num_lost_in_flight: Requests whose partial forward pass died with a
            replica (a subset of the retried).
        lost_work_tokens: Tokens of in-flight compute discarded by crashes.
        lost_kv_tokens: Cached tokens (GPU radix tree + host store) dropped
            by crashes — only cluster-store-resident prefixes survive.
        num_unserved: Requests (arrivals or retries) that found zero active
            replicas and were dropped fleet-wide.
        warm_restored_blocks: Blocks staged from the cluster store into
            rebuilt replicas' host tiers on rejoin.
        warm_restore_hit_rate: Fraction of the rebuilt replicas' input tokens
            served from the host/cluster tiers instead of recomputed cold —
            the recovery value of the shared KV store.
        offered_rps / goodput_rps: Offered load vs completed throughput over
            the run's makespan.
        goodput_ratio: Completed / offered requests — SLO-agnostic
            availability under failure.
        fault_log: One dict row per delivered fault event, in time order.
        policy: Resilience-policy outcomes (deadline misses, hedge
            wins/waste, breaker transitions, degraded-time fraction) when a
            ``"resilience"`` block was active — ``None`` otherwise, keeping
            policy-free summaries (and their golden fingerprints) unchanged.
    """

    num_faults: int
    num_faults_skipped: int
    num_crashes: int
    num_recoveries: int
    num_slow_events: int
    num_brownouts: int
    num_outages: int
    mean_mttr_s: float
    num_retried: int
    num_lost_in_flight: int
    lost_work_tokens: int
    lost_kv_tokens: int
    num_unserved: int
    warm_restored_blocks: int
    warm_restore_hit_rate: float
    offered_rps: float
    goodput_rps: float
    goodput_ratio: float
    fault_log: tuple[dict, ...] = ()
    policy: dict | None = None

    def as_dict(self) -> dict:
        """Scalar view for report tables."""
        row = {
            "num_faults": self.num_faults,
            "num_crashes": self.num_crashes,
            "num_recoveries": self.num_recoveries,
            "mean_mttr_s": round(self.mean_mttr_s, 3),
            "num_retried": self.num_retried,
            "lost_work_tokens": self.lost_work_tokens,
            "lost_kv_tokens": self.lost_kv_tokens,
            "num_unserved": self.num_unserved,
            "warm_restored_blocks": self.warm_restored_blocks,
            "warm_restore_hit_rate": round(self.warm_restore_hit_rate, 3),
            "offered_rps": round(self.offered_rps, 3),
            "goodput_rps": round(self.goodput_rps, 3),
            "goodput_ratio": round(self.goodput_ratio, 3),
        }
        if self.policy is not None:
            row.update(self.policy)
        return row


def summarize_resilience(counters, *, fault_log: tuple[dict, ...] = (),
                         num_submitted: int = 0, num_finished: int = 0,
                         makespan: float = 0.0, warm_hit_tokens: int = 0,
                         warm_total_tokens: int = 0,
                         include_policy: bool = False) -> ResilienceSummary:
    """Freeze a fleet's fault counters into a :class:`ResilienceSummary`.

    Args:
        counters: The fleet's :class:`~repro.faults.ResilienceCounters`.
        fault_log: Delivered fault events, as dict rows in time order.
        num_submitted / num_finished: Offered and completed request counts.
        makespan: The run's makespan in seconds (0 yields zero rates — the
            all-crashed run that finishes nothing).
        warm_hit_tokens / warm_total_tokens: Tier-served and total input
            tokens on the replicas fault recovery rebuilt.
        include_policy: Freeze the resilience-*policy* outcome columns too
            (a run with an active ``"resilience"`` block); the default keeps
            policy-free summaries byte-identical to earlier builds.
    """
    policy = None
    if include_policy:
        policy = {
            "num_deadline_missed": counters.num_deadline_missed,
            "num_hedges": counters.num_hedges,
            "num_hedge_wins": counters.num_hedge_wins,
            "hedge_wasted_tokens": counters.hedge_wasted_tokens,
            "num_retry_exhausted": counters.num_retry_exhausted,
            "num_breaker_opens": counters.num_breaker_opens,
            "num_breaker_closes": counters.num_breaker_closes,
            "num_preemptions": counters.num_preemptions,
            "num_degrade_sheds": counters.num_degrade_sheds,
            "degraded_time_fraction": round(
                counters.degraded_seconds / makespan if makespan > 0 else 0.0, 4
            ),
        }
    return ResilienceSummary(
        num_faults=counters.num_faults_applied,
        num_faults_skipped=counters.num_faults_skipped,
        num_crashes=counters.num_crashes,
        num_recoveries=counters.num_recoveries,
        num_slow_events=counters.num_slow_events,
        num_brownouts=counters.num_brownouts,
        num_outages=counters.num_outages,
        mean_mttr_s=(
            float(np.mean(counters.mttr_samples)) if counters.mttr_samples else 0.0
        ),
        num_retried=counters.num_retried,
        num_lost_in_flight=counters.num_lost_in_flight,
        lost_work_tokens=counters.lost_work_tokens,
        lost_kv_tokens=counters.lost_kv_tokens,
        num_unserved=counters.num_unserved,
        warm_restored_blocks=counters.warm_restored_blocks,
        warm_restore_hit_rate=(
            warm_hit_tokens / warm_total_tokens if warm_total_tokens else 0.0
        ),
        offered_rps=num_submitted / makespan if makespan > 0 else 0.0,
        goodput_rps=num_finished / makespan if makespan > 0 else 0.0,
        goodput_ratio=num_finished / num_submitted if num_submitted else 0.0,
        fault_log=tuple(fault_log),
        policy=policy,
    )


@dataclass(frozen=True)
class FleetSummary:
    """Cluster-level statistics of one fleet simulation run.

    Attributes:
        num_replicas: Replicas receiving traffic when the run ended.
        peak_replicas: Largest routable replica count seen during the run.
        num_scale_ups / num_scale_downs: Applied autoscaler decisions.
        num_shed: Requests rejected by admission control.
        mean_utilization: Mean of per-replica busy-time utilisation.
        utilization_per_replica: Replica name -> utilisation in [0, 1].
        token_hit_rate_per_replica: Replica name -> prefix-cache token hit rate.
        cache_hit_variance: Population variance of the per-replica token hit
            rates (over replicas that served at least one request) — the
            paper's routing argument predicts this stays low under user-id
            routing because each user's prefix lives on exactly one replica.
        scale_events: ``ScaleEvent.as_dict()`` rows, in time order.
        offload: Aggregate CPU-offload-store counters (blocks stored / loaded
            / evicted across all replicas), or None when no replica ran an
            offload store — so default runs are unchanged.
        tiers: The run's :class:`TierSummary` when tiering was enabled,
            else None.
        resilience: The run's :class:`ResilienceSummary` when a fault
            schedule was injected, else None.
    """

    num_replicas: int
    peak_replicas: int
    num_scale_ups: int
    num_scale_downs: int
    num_shed: int
    mean_utilization: float
    utilization_per_replica: dict[str, float]
    token_hit_rate_per_replica: dict[str, float]
    cache_hit_variance: float
    scale_events: tuple[dict, ...] = ()
    offload: dict | None = None
    tiers: TierSummary | None = None
    resilience: ResilienceSummary | None = None

    def as_dict(self) -> dict:
        """Plain-dict view (scalar fields only) for report tables.

        Offload, tier, and resilience columns appear only when the run
        produced them, so reports for untouched configurations stay
        byte-identical.
        """
        row = {
            "num_replicas": self.num_replicas,
            "peak_replicas": self.peak_replicas,
            "num_scale_ups": self.num_scale_ups,
            "num_scale_downs": self.num_scale_downs,
            "num_shed": self.num_shed,
            "mean_utilization": round(self.mean_utilization, 3),
            "cache_hit_variance": round(self.cache_hit_variance, 5),
        }
        if self.offload is not None:
            row["offload_stored"] = self.offload["stored_blocks"]
            row["offload_loaded"] = self.offload["loaded_blocks"]
            row["offload_evicted"] = self.offload["evicted_blocks"]
        if self.tiers is not None:
            row["tier_hit_rate"] = round(self.tiers.tier_hit_rate, 3)
        if self.resilience is not None:
            row["num_crashes"] = self.resilience.num_crashes
            row["num_retried"] = self.resilience.num_retried
            row["goodput_ratio"] = round(self.resilience.goodput_ratio, 3)
        return row


def summarize_fleet(replica_reports: list[dict], *,
                    scale_events: tuple[dict, ...] = (),
                    num_scale_ups: int = 0, num_scale_downs: int = 0,
                    num_shed: int = 0, num_replicas: int = 0,
                    peak_replicas: int = 0,
                    tiers: TierSummary | None = None,
                    resilience: ResilienceSummary | None = None) -> FleetSummary:
    """Summarise per-replica report rows into a :class:`FleetSummary`.

    Args:
        replica_reports: Rows built by
            :func:`repro.cluster.fleet.replica_report` (one per replica the
            fleet ever ran, including retired ones).  Rows carrying
            ``offload_stored`` / ``offload_loaded`` / ``offload_evicted``
            counters aggregate into the summary's ``offload`` view.
        scale_events: Scale-event dict rows in time order.
        num_scale_ups / num_scale_downs / num_shed: Fleet counters.
        num_replicas / peak_replicas: Final and peak routable replica counts.
        tiers: Optional tier accounting for the run.
        resilience: Optional fault/recovery accounting for the run.

    All aggregations are empty-safe: a run that finishes zero requests (an
    all-crashed or all-shed chaos run) summarises to clean zeros rather than
    raising on empty report lists.
    """
    utilization = {
        report["replica"]: float(report["utilization"]) for report in replica_reports
    }
    hit_rates = {
        report["replica"]: float(report["token_hit_rate"]) for report in replica_reports
    }
    serving_hit_rates = [
        float(report["token_hit_rate"])
        for report in replica_reports if report.get("finished", 0) > 0
    ]
    offload_rows = [r for r in replica_reports if "offload_stored" in r]
    offload = None
    if offload_rows:
        offload = {
            "stored_blocks": sum(r["offload_stored"] for r in offload_rows),
            "loaded_blocks": sum(r["offload_loaded"] for r in offload_rows),
            "evicted_blocks": sum(r["offload_evicted"] for r in offload_rows),
        }
    return FleetSummary(
        num_replicas=num_replicas,
        peak_replicas=peak_replicas,
        num_scale_ups=num_scale_ups,
        num_scale_downs=num_scale_downs,
        num_shed=num_shed,
        mean_utilization=(
            float(np.mean(list(utilization.values()))) if utilization else 0.0
        ),
        utilization_per_replica=utilization,
        token_hit_rate_per_replica=hit_rates,
        cache_hit_variance=(
            float(np.var(serving_hit_rates)) if serving_hit_rates else 0.0
        ),
        scale_events=tuple(scale_events),
        offload=offload,
        tiers=tiers,
        resilience=resilience,
    )


def latency_cdf(finished: list[FinishedRequest], *, num_points: int = 100) -> list[tuple[float, float]]:
    """Empirical CDF of request latency, as (latency, fraction ≤ latency) pairs.

    Used by the Figure 11 benchmark (latency CDF under different fairness λ).
    """
    if not finished:
        return []
    latencies = np.sort(np.asarray([record.latency for record in finished], dtype=np.float64))
    fractions = np.arange(1, len(latencies) + 1) / len(latencies)
    if len(latencies) <= num_points:
        return list(zip(latencies.tolist(), fractions.tolist()))
    indices = np.linspace(0, len(latencies) - 1, num_points).astype(int)
    return list(zip(latencies[indices].tolist(), fractions[indices].tolist()))
