"""Tests for latency / throughput summaries."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.engine import FinishedRequest
from repro.simulation.metrics import latency_cdf, percentile, summarize_finished


def make_record(request_id: int, arrival: float, start: float, finish: float, *,
                tokens: int = 1000, cached: int = 0) -> FinishedRequest:
    return FinishedRequest(
        request_id=request_id,
        user_id="u",
        num_tokens=tokens,
        cached_tokens=cached,
        arrival_time=arrival,
        start_time=start,
        finish_time=finish,
        instance_name="i0",
        engine_name="test",
    )


def test_percentile_basic():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 100) == 4.0
    assert percentile([], 99) == 0.0


LATENCIES = st.floats(min_value=0.0, max_value=1e9)


@settings.get_profile("fuzz-run")
# Unsorted, tied and single-sample inputs at the reported percentiles, in
# every run, not only in the runs that draw such a case.
@example(values=[3.0, 0.25, 2.0, 1.5], q=50.0)
@example(values=[5.0, 0.1, 5.0, 5.0, 0.3, 0.1], q=90.0)
@example(values=[0.7], q=99.0)
@example(values=[2.5, 1.0, 2.5], q=100.0)
@given(values=st.one_of(
           st.lists(LATENCIES, min_size=1, max_size=400),
           # Draws from a few values, so the input holds ties.
           st.lists(LATENCIES, min_size=1, max_size=5).flatmap(
               lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=400))),
       q=st.one_of(st.sampled_from([50.0, 90.0, 99.0, 100.0]), st.floats(0.0, 100.0)))
def test_percentile_is_numpys_linear_percentile_bit_for_bit(values, q):
    expected = float(np.percentile(np.asarray(values, dtype=np.float64), q))
    assert percentile(values, q).hex() == expected.hex()


def test_summary_of_empty_run():
    summary = summarize_finished([])
    assert summary.num_requests == 0
    assert summary.throughput_rps == 0.0


def test_summary_latency_statistics():
    records = [
        make_record(0, arrival=0.0, start=0.0, finish=1.0),
        make_record(1, arrival=0.0, start=1.0, finish=3.0),
        make_record(2, arrival=1.0, start=3.0, finish=6.0),
    ]
    summary = summarize_finished(records)
    assert summary.num_requests == 3
    assert summary.mean_latency == pytest.approx((1.0 + 3.0 + 5.0) / 3)
    assert summary.max_latency == 5.0
    assert summary.makespan == pytest.approx(6.0)
    assert summary.throughput_rps == pytest.approx(0.5)
    assert summary.mean_queueing_time == pytest.approx((0.0 + 1.0 + 2.0) / 3)


def test_summary_cache_hit_rates():
    records = [
        make_record(0, 0.0, 0.0, 1.0, tokens=1000, cached=0),
        make_record(1, 0.0, 1.0, 2.0, tokens=1000, cached=500),
    ]
    summary = summarize_finished(records)
    assert summary.cache_hit_rate == 0.5
    assert summary.token_hit_rate == 0.25


def test_summary_counts_rejections():
    record = make_record(0, 0.0, 0.0, 1.0)
    rejection = make_record(1, 0.0, 0.0, 0.0)
    summary = summarize_finished([record], [rejection])
    assert summary.num_rejected == 1


def test_summary_as_dict_keys():
    record = make_record(0, 0.0, 0.0, 1.0)
    payload = summarize_finished([record]).as_dict()
    assert {"mean_latency_s", "p99_latency_s", "throughput_rps"} <= payload.keys()


def test_latency_cdf_is_monotone():
    records = [make_record(i, 0.0, 0.0, float(i + 1)) for i in range(10)]
    cdf = latency_cdf(records)
    latencies = [x for x, _ in cdf]
    fractions = [y for _, y in cdf]
    assert latencies == sorted(latencies)
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)


def test_latency_cdf_downsamples():
    records = [make_record(i, 0.0, 0.0, float(i + 1)) for i in range(500)]
    cdf = latency_cdf(records, num_points=50)
    assert len(cdf) == 50


def test_latency_cdf_empty():
    assert latency_cdf([]) == []


# --------------------------------------------------------------- time edges


def test_summary_zero_duration_run():
    """All records on one instant: the makespan clamp keeps rates finite."""
    records = [make_record(i, arrival=5.0, start=5.0, finish=5.0) for i in range(3)]
    summary = summarize_finished(records)
    assert summary.makespan == pytest.approx(1e-12)
    assert summary.mean_latency == 0.0
    assert summary.p99_latency == 0.0
    assert summary.throughput_rps == pytest.approx(3 / 1e-12)
    import math
    assert math.isfinite(summary.throughput_rps)


def test_summary_all_rejected_run():
    """Nothing finished but requests were offered: zeros, not a crash."""
    rejections = [make_record(i, 0.0, 0.0, 0.0) for i in range(4)]
    summary = summarize_finished([], rejections)
    assert summary.num_requests == 0
    assert summary.num_rejected == 4
    assert summary.makespan == 0.0
    assert summary.throughput_rps == 0.0


def test_summary_zero_token_records():
    """token_hit_rate guards the zero-token denominator."""
    summary = summarize_finished([make_record(0, 0.0, 0.0, 1.0, tokens=0)])
    assert summary.token_hit_rate == 0.0


def test_resilience_zero_makespan_yields_zero_rates():
    """The all-crashed run that finishes nothing must not divide by zero."""
    from repro.faults.schedule import ResilienceCounters
    from repro.simulation.metrics import summarize_resilience

    summary = summarize_resilience(
        ResilienceCounters(), num_submitted=0, num_finished=0, makespan=0.0
    )
    assert summary.offered_rps == 0.0
    assert summary.goodput_rps == 0.0
    assert summary.goodput_ratio == 0.0
    assert summary.mean_mttr_s == 0.0


def test_resilience_rates_with_positive_makespan():
    from repro.faults.schedule import ResilienceCounters
    from repro.simulation.metrics import summarize_resilience

    counters = ResilienceCounters(num_faults_applied=2, mttr_samples=[1.0, 3.0])
    summary = summarize_resilience(
        counters, num_submitted=10, num_finished=8, makespan=4.0
    )
    assert summary.offered_rps == pytest.approx(2.5)
    assert summary.goodput_rps == pytest.approx(2.0)
    assert summary.goodput_ratio == pytest.approx(0.8)
    assert summary.mean_mttr_s == pytest.approx(2.0)
