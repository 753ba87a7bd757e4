"""Job-completion-time (JCT) profiling and estimation.

Because a prefill-only request always produces exactly one output token, its
JCT is a deterministic function of how many input tokens it has and how many of
those already sit in the prefix cache.  The paper obtains this function by an
offline profiling pass over (input length, cached length) pairs at 1,000-token
granularity, fits a small linear model, and notes that the *number of cache-miss
tokens* alone is already an excellent proxy (Pearson correlation 0.987 on an
A100 with Qwen-32B).  This module reproduces both: the profiler sweeps the
latency model over the grid, the estimator fits the regression, and
:func:`jct_pearson_correlation` reproduces the correlation measurement.

The SRJF scheduler (:mod:`repro.core.scheduler`) scores requests with the proxy
alone, :meth:`JCTEstimator.proxy`; the fitted model serves the §6.3
measurement, not the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.latency import LatencyModel
from repro.model.memory import PrefillMode


@dataclass(frozen=True)
class JCTProfile:
    """Raw profiling samples: one JCT measurement per (input, cached) pair."""

    input_tokens: tuple[int, ...]
    cached_tokens: tuple[int, ...]
    jct_seconds: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.jct_seconds)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.asarray(self.input_tokens, dtype=np.float64),
            np.asarray(self.cached_tokens, dtype=np.float64),
            np.asarray(self.jct_seconds, dtype=np.float64),
        )


class JCTProfiler:
    """Offline profiling pass that measures JCT over an (input, cached) grid.

    In the real system this forwards synthetic requests through the engine; in
    this reproduction the "measurement" is the latency model, optionally with
    multiplicative noise so the regression is exercised realistically.
    """

    def __init__(self, latency_model: LatencyModel, *, mode: PrefillMode = PrefillMode.HYBRID,
                 chunk_tokens: int = 2048, tensor_parallel: int = 1,
                 pipeline_parallel: int = 1) -> None:
        self._latency = latency_model
        self._mode = mode
        self._chunk_tokens = chunk_tokens
        self._tensor_parallel = tensor_parallel
        self._pipeline_parallel = pipeline_parallel

    def measure(self, num_input_tokens: int, num_cached_tokens: int) -> float:
        """One JCT measurement (seconds)."""
        uncached = max(num_input_tokens - num_cached_tokens, 0)
        timing = self._latency.prefill_time(
            uncached,
            num_cached_tokens=num_cached_tokens,
            mode=self._mode,
            chunk_tokens=self._chunk_tokens,
            tensor_parallel=self._tensor_parallel,
            pipeline_parallel=self._pipeline_parallel,
        )
        return timing.total

    def profile(self, max_input_tokens: int, *, granularity: int = 1000,
                noise_std: float = 0.0, seed: int = 0) -> JCTProfile:
        """Sweep the (input, cached) grid up to ``max_input_tokens``.

        Args:
            max_input_tokens: The user-provided maximum input length (MIL).
            granularity: Grid spacing in tokens (the paper uses 1,000).
            noise_std: Relative measurement noise (0 for the pure model).
            seed: RNG seed for the noise.
        """
        if max_input_tokens <= 0:
            raise ValueError("max_input_tokens must be positive")
        rng = np.random.default_rng(seed)
        inputs: list[int] = []
        cached: list[int] = []
        jcts: list[float] = []
        grid = list(range(granularity, max_input_tokens + 1, granularity))
        if not grid or grid[-1] != max_input_tokens:
            grid.append(max_input_tokens)
        for num_input in grid:
            for num_cached in range(0, num_input + 1, granularity):
                measured = self.measure(num_input, num_cached)
                if noise_std > 0.0:
                    measured *= float(1.0 + rng.normal(0.0, noise_std))
                inputs.append(num_input)
                cached.append(num_cached)
                jcts.append(max(measured, 0.0))
        return JCTProfile(tuple(inputs), tuple(cached), tuple(jcts))


class JCTEstimator:
    """Linear JCT model fitted on a :class:`JCTProfile`.

    The model is ``jct ≈ a * uncached_tokens + b * cached_tokens + c``, fitted
    by least squares.  ``estimate`` evaluates it; ``proxy`` returns the paper's
    default cache-miss-token proxy (which only needs to rank requests, so its
    unit is tokens rather than seconds).
    """

    def __init__(self, coef_uncached: float, coef_cached: float, intercept: float) -> None:
        self.coef_uncached = coef_uncached
        self.coef_cached = coef_cached
        self.intercept = intercept

    @classmethod
    def fit(cls, profile: JCTProfile) -> "JCTEstimator":
        """Fit the linear model on profiling samples."""
        inputs, cached, jcts = profile.as_arrays()
        uncached = inputs - cached
        design = np.stack([uncached, cached, np.ones_like(uncached)], axis=1)
        coeffs, *_ = np.linalg.lstsq(design, jcts, rcond=None)
        return cls(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]))

    def estimate(self, num_input_tokens: int, num_cached_tokens: int) -> float:
        """Estimated JCT in seconds."""
        uncached = max(num_input_tokens - num_cached_tokens, 0)
        return max(
            self.coef_uncached * uncached + self.coef_cached * num_cached_tokens + self.intercept,
            0.0,
        )

    @staticmethod
    def proxy(num_input_tokens: int, num_cached_tokens: int) -> float:
        """The paper's default JCT proxy: the number of cache-miss tokens."""
        return float(max(num_input_tokens - num_cached_tokens, 0))

    def r_squared(self, profile: JCTProfile) -> float:
        """Coefficient of determination of the fit on ``profile``."""
        inputs, cached, jcts = profile.as_arrays()
        predicted = np.array([
            self.estimate(int(i), int(c)) for i, c in zip(inputs, cached)
        ])
        residual = float(np.sum((jcts - predicted) ** 2))
        total = float(np.sum((jcts - jcts.mean()) ** 2))
        if total == 0.0:
            return 1.0
        return 1.0 - residual / total


def jct_pearson_correlation(profile: JCTProfile) -> float:
    """Pearson correlation between true JCT and the cache-miss-token proxy.

    Reproduces the paper's §6.3 measurement (0.987 on A100 / Qwen-32B-FP8).
    """
    inputs, cached, jcts = profile.as_arrays()
    proxy = inputs - cached
    if np.allclose(proxy.std(), 0.0) or np.allclose(jcts.std(), 0.0):
        return 1.0
    return float(np.corrcoef(proxy, jcts)[0, 1])
