"""Unit tests of the span/metrics recorder's time semantics.

The identity contracts (disabled path == seed, sharded exports == unsharded)
are pinned end-to-end in ``tests/test_obs_identity.py``; this module covers
the recorder's own edges — sample boundaries, zero-duration runs, intervals
longer than the run, histogram ``le`` bucket boundaries, and the counters
kept out of the sampled series.
"""

import pytest

from repro.errors import ObsError, UnknownSpanKindError
from repro.obs.recorder import (
    DEFAULT_LATENCY_BUCKETS,
    GLOBAL_KEY,
    KIND_ORDER,
    NULL_RECORDER,
    TraceRecorder,
)
from repro.spec.models import ObservabilitySpec


def make_recorder(**overrides) -> TraceRecorder:
    return TraceRecorder(ObservabilitySpec(enabled=True, **overrides))


def sample_times(data, name="queue_depth"):
    return [time for time, n, _labels, _v in data.samples if n == name]


# ------------------------------------------------------------- null recorder


def test_null_recorder_is_inert():
    NULL_RECORDER.register_replica(0, "r0")
    NULL_RECORDER.emit(1.0, 0, "finish", latency_s=0.5)
    NULL_RECORDER.maybe_sample(2.0)
    NULL_RECORDER.finalize(3.0)
    assert NULL_RECORDER.enabled is False


# ------------------------------------------------------------ span ordering


def test_events_sort_in_canonical_order():
    recorder = make_recorder()
    # Emitted out of lifecycle order, all at the same instant.
    recorder.emit(1.0, 0, "finish", latency_s=0.5)
    recorder.emit(1.0, 0, "start")
    recorder.emit(1.0, GLOBAL_KEY, "submit")
    recorder.emit(0.5, 3, "start")
    data = recorder.freeze(1.0)
    assert [(t, k, kind) for t, k, kind, _a, _s in data.events] == [
        (0.5, 3, "start"),
        (1.0, GLOBAL_KEY, "submit"),
        (1.0, 0, "start"),
        (1.0, 0, "finish"),
    ]


def test_sequence_numbers_break_same_slot_ties():
    recorder = make_recorder()
    recorder.emit(2.0, 0, "finish", latency_s=0.1, request=7)
    recorder.emit(2.0, 0, "finish", latency_s=0.2, request=9)
    data = recorder.freeze(2.0)
    assert [event[3]["request"] for event in data.events] == [7, 9]
    assert [event[4] for event in data.events] == [0, 1]


def test_kind_order_covers_every_counted_kind():
    """Every kind the counter switch knows has a canonical rank."""
    recorder = make_recorder()
    for kind in KIND_ORDER:
        recorder.emit(0.0, 0, kind)
    assert len(recorder.freeze(0.0).events) == len(KIND_ORDER)


def test_unknown_span_kind_raises_and_records_nothing():
    """A kind outside KIND_ORDER fails loudly instead of sorting last and
    counting nothing."""
    recorder = make_recorder()
    with pytest.raises(ObsError, match="unknown span kind 'demotion'; available: ") as excinfo:
        recorder.emit(1.0, 0, "demotion", blocks=1)
    assert excinfo.value.available == sorted(KIND_ORDER)
    with pytest.raises(UnknownSpanKindError):
        recorder.emit_many(2.0, 0, "demotion", 3, blocks=1)
    data = recorder.freeze()
    assert data.events == () and data.counters == () and data.end_time == 0.0


def test_emit_many_equals_repeated_emit():
    """For each block-counted kind, a batch of n events leaves the events,
    counters and end time of n ``emit`` calls, with or without a ``blocks``
    attribute."""
    for kind in ("promote", "demote", "prefetch", "peer_fetch", "warm_restore"):
        for attrs in ({}, {"blocks": 3}):
            batched, repeated = make_recorder(), make_recorder()
            for recorder in (batched, repeated):
                recorder.emit(1.0, 0, kind, blocks=2)  # the batch continues a sequence
            batched.emit_many(2.5, 0, kind, 4, **attrs)
            for _ in range(4):
                repeated.emit(2.5, 0, kind, **attrs)
            once, many = batched.freeze(), repeated.freeze()
            assert once.events == many.events, kind
            assert once.counters == many.counters, kind
            assert once.end_time == many.end_time == 2.5
            assert once == many


# ----------------------------------------------------------- sampling edges


def test_boundaries_sampled_before_the_batch():
    """The sample at boundary b reflects state strictly before b."""
    recorder = make_recorder(sample_interval_s=1.0)
    recorder.register_replica(0, "r0")
    recorder.maybe_sample(0.0)
    recorder.emit(0.4, 0, "finish", latency_s=0.4)
    recorder.maybe_sample(1.0)  # boundary 1.0: sees the 0.4 finish
    recorder.emit(1.0, 0, "finish", latency_s=0.6)
    data = recorder.freeze(1.0)
    finished = {
        time: value for time, name, _l, value in data.samples
        if name == "finished_total"
    }
    assert finished == {1.0: 1}  # the finish *at* 1.0 is not in boundary 1.0


def test_zero_duration_run_records_exactly_boundary_zero():
    recorder = make_recorder(sample_interval_s=1.0)
    recorder.emit(0.0, 0, "finish", latency_s=0.0)
    data = recorder.freeze(0.0)
    assert data.num_boundaries == 1
    assert data.end_time == 0.0
    times = {time for time, *_ in data.samples}
    assert times == {0.0}


def test_interval_longer_than_run_yields_one_boundary():
    recorder = make_recorder(sample_interval_s=100.0)
    recorder.maybe_sample(0.0)
    recorder.emit(3.0, 0, "finish", latency_s=1.0)
    data = recorder.freeze(3.0)
    assert data.num_boundaries == 1  # only k = 0; 100.0 > end of run
    assert data.end_time == 3.0


def test_finalize_catches_skipped_boundaries():
    """A stream ending between boundaries still samples every k*interval."""
    recorder = make_recorder(sample_interval_s=1.0)
    recorder.maybe_sample(0.0)
    recorder.maybe_sample(3.5)  # loop jumps straight to 3.5
    recorder.finalize(3.5)
    data = recorder.freeze()
    assert data.num_boundaries == 4  # 0, 1, 2, 3
    assert data.end_time == 3.5


def test_finalize_is_idempotent():
    recorder = make_recorder(sample_interval_s=1.0)
    recorder.finalize(2.0)
    before = recorder.freeze()
    recorder.finalize(2.0)
    assert recorder.freeze() == before


def test_gauges_invoked_once_per_boundary():
    calls = []
    recorder = make_recorder(sample_interval_s=1.0)

    def gauges():
        calls.append(len(calls))
        return [("queue_depth", (("replica", "r0"),), len(calls))]

    recorder.maybe_sample(2.0, gauges)  # crosses 0, 1, 2
    assert calls == [0, 1, 2]
    data = recorder.freeze(2.0)
    assert sample_times(data) == [0.0, 1.0, 2.0]


# ------------------------------------------------------ histogram boundaries


def test_histogram_value_on_edge_falls_in_that_bucket():
    """Prometheus le semantics: value == edge counts in the edge's bucket."""
    recorder = make_recorder(latency_buckets=(0.1, 1.0, 10.0))
    for latency in (0.1, 1.0, 10.0):
        recorder.emit(0.0, 0, "finish", latency_s=latency)
    data = recorder.freeze(0.0)
    assert data.hist_counts == (1, 1, 1, 0)
    assert data.hist_count == 3
    assert data.hist_sum == pytest.approx(11.1)


def test_histogram_overflow_bucket():
    recorder = make_recorder(latency_buckets=(0.1, 1.0))
    recorder.emit(0.0, 0, "finish", latency_s=1.0000001)  # just over the edge
    recorder.emit(0.0, 0, "finish", latency_s=50.0)
    data = recorder.freeze(0.0)
    assert data.hist_counts == (0, 0, 2)


def test_histogram_zero_latency_lands_in_first_bucket():
    recorder = make_recorder()
    recorder.emit(0.0, 0, "finish", latency_s=0.0)
    data = recorder.freeze(0.0)
    assert data.hist_counts[0] == 1
    assert data.hist_buckets == DEFAULT_LATENCY_BUCKETS


# ---------------------------------------------------------------- counters


def test_snapshot_only_counters_stay_out_of_the_series():
    """The routing counters reach the end-of-run snapshot, never a sample."""
    recorder = TraceRecorder(ObservabilitySpec(enabled=True, sample_interval_s=1.0))
    recorder.register_replica(0, "r0")
    recorder.emit(0.0, GLOBAL_KEY, "submit")
    recorder.emit(0.0, 0, "route")
    recorder.emit(2.0, 0, "finish", latency_s=0.5)
    data = recorder.freeze(2.0)
    counters = dict(data.counters)
    assert counters[("submitted_total", ())] == 1
    assert counters[("routed_total", (("replica", "r0"),))] == 1
    sampled = {name for _t, name, _l, _v in data.samples}
    assert "finished_total" in sampled
    assert "submitted_total" not in sampled
    assert "routed_total" not in sampled


def test_tenant_slo_attainment_counters():
    recorder = TraceRecorder(
        ObservabilitySpec(enabled=True), tenant_slos={"gold": 1.0}
    )
    recorder.register_replica(0, "r0")
    recorder.emit(1.0, 0, "finish", latency_s=0.5, tenant="gold")
    recorder.emit(2.0, 0, "finish", latency_s=2.0, tenant="gold")
    recorder.emit(3.0, 0, "finish", latency_s=9.0, tenant="free")
    counters = dict(recorder.freeze(3.0).counters)
    assert counters[("tenant_finished_total", (("tenant", "gold"),))] == 2
    assert counters[("tenant_slo_ok_total", (("tenant", "gold"),))] == 1
    # "free" has no SLO: finished is counted, attainment is not.
    assert counters[("tenant_finished_total", (("tenant", "free"),))] == 1
    assert ("tenant_slo_ok_total", (("tenant", "free"),)) not in counters


def test_spans_and_metrics_toggles_are_independent():
    spans_only = TraceRecorder(ObservabilitySpec(enabled=True, metrics=False))
    spans_only.emit(1.0, 0, "finish", latency_s=0.5)
    data = spans_only.freeze(1.0)
    assert len(data.events) == 1 and data.counters == () and data.samples == ()

    metrics_only = TraceRecorder(ObservabilitySpec(enabled=True, spans=False))
    metrics_only.register_replica(0, "r0")
    metrics_only.emit(1.0, 0, "finish", latency_s=0.5)
    data = metrics_only.freeze(1.0)
    assert data.events == () and len(data.counters) == 1
