"""Tests for JCT profiling and estimation."""

import pytest

from repro.core.jct import JCTEstimator, JCTProfiler, jct_pearson_correlation
from repro.hardware.gpu import A100_40GB
from repro.model.config import QWEN_32B_FP8
from repro.model.latency import LatencyModel
from repro.model.memory import PrefillMode


@pytest.fixture(scope="module")
def latency_model():
    return LatencyModel(QWEN_32B_FP8, A100_40GB)


@pytest.fixture(scope="module")
def profile(latency_model):
    profiler = JCTProfiler(latency_model, mode=PrefillMode.HYBRID)
    return profiler.profile(20_000, granularity=2_000)


def test_profile_covers_the_grid(profile):
    assert len(profile) > 20
    assert max(profile.input_tokens) == 20_000
    assert all(c <= i for i, c in zip(profile.input_tokens, profile.cached_tokens))


def test_measurements_increase_with_uncached_tokens(latency_model):
    profiler = JCTProfiler(latency_model)
    assert profiler.measure(10_000, 0) > profiler.measure(10_000, 8_000)


def test_estimator_fit_predicts_profile_well(profile):
    estimator = JCTEstimator.fit(profile)
    assert estimator.r_squared(profile) > 0.98
    assert estimator.coef_uncached > 0


def test_estimator_estimates_are_monotone_in_uncached_tokens(profile):
    estimator = JCTEstimator.fit(profile)
    assert estimator.estimate(10_000, 0) > estimator.estimate(10_000, 9_000)
    assert estimator.estimate(10_000, 10_000) >= 0.0


def test_estimator_from_latency_model(latency_model):
    estimator = JCTEstimator.fit(
        JCTProfiler(latency_model).profile(20_000, granularity=2_000)
    )
    direct = latency_model.prefill_time(10_000, mode=PrefillMode.HYBRID).total
    assert estimator.estimate(10_000, 0) == pytest.approx(direct, rel=0.15)


def test_proxy_is_cache_miss_tokens():
    assert JCTEstimator.proxy(12_000, 2_000) == 10_000
    assert JCTEstimator.proxy(1_000, 5_000) == 0


def test_pearson_correlation_matches_paper_measurement(latency_model):
    """§6.3: correlation between JCT and cache-miss tokens is ~0.987 on A100/Qwen-32B."""
    profiler = JCTProfiler(latency_model, mode=PrefillMode.HYBRID)
    profile = profiler.profile(80_000, granularity=4_000)
    correlation = jct_pearson_correlation(profile)
    assert correlation > 0.95


def test_pearson_correlation_robust_to_noise(latency_model):
    profiler = JCTProfiler(latency_model)
    noisy = profiler.profile(40_000, granularity=4_000, noise_std=0.05, seed=3)
    assert jct_pearson_correlation(noisy) > 0.9


def test_profile_rejects_invalid_input(latency_model):
    profiler = JCTProfiler(latency_model)
    with pytest.raises(ValueError):
        profiler.profile(0)


def test_fit_on_noisy_profile_still_reasonable(latency_model):
    profiler = JCTProfiler(latency_model)
    noisy = profiler.profile(40_000, granularity=4_000, noise_std=0.05, seed=1)
    estimator = JCTEstimator.fit(noisy)
    assert estimator.r_squared(noisy) > 0.9
