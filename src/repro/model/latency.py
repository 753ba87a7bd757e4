"""Analytical latency model for prefill and decode on a given GPU.

The latency model converts the FLOP counts of :mod:`repro.model.flops` into
seconds on a :class:`~repro.hardware.gpu.GPUSpec`, applying the execution-mode
specific effects the paper describes:

* chunked prefilling lowers attention-kernel efficiency (the paper measures a
  14% end-to-end slowdown when chunking a 20,000-token input into 512-token
  chunks);
* tensor parallelism divides the compute across GPUs but adds two all-reduces
  per layer over the interconnect;
* pipeline parallelism leaves single-request latency essentially unchanged
  (stages run sequentially for one request) but lets two requests overlap,
  which the serving simulator models with per-stage resources;
* hybrid prefilling adds only a small per-chunk launch overhead, preserving the
  attention kernel's efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.gpu import GPUSpec
from repro.hardware.interconnect import Interconnect, allreduce_time
from repro.model.config import ModelConfig
from repro.model.flops import FlopsModel
from repro.model.memory import PrefillMode


#: Fraction of throughput lost by the attention kernel when the prefill is cut
#: into chunks, at the reference point measured in the paper (20,000-token input
#: with 512-token chunks -> 14% end-to-end slowdown).
CHUNKED_ATTENTION_PENALTY_REFERENCE = 0.14
CHUNKED_REFERENCE_INPUT = 20_000
CHUNKED_REFERENCE_CHUNK = 512

#: Per-chunk kernel launch overhead of hybrid prefilling (seconds).  Hybrid
#: prefilling only re-launches the position-wise layers, so this is small.
HYBRID_PER_CHUNK_OVERHEAD = 40e-6

#: Entries kept in a latency model's prefill memo before it is cleared and
#: restarted.  Generous: a whole JCT profiling grid at 1,000-token
#: granularity over a 131k MIL is ~8,700 distinct keys.
LATENCY_MEMO_MAX_ENTRIES = 65_536


@dataclass(frozen=True)
class PrefillTiming:
    """Latency breakdown of one prefill forward pass."""

    compute_time: float
    communication_time: float
    overhead_time: float

    @property
    def total(self) -> float:
        return self.compute_time + self.communication_time + self.overhead_time


def chunked_prefill_penalty(num_tokens: int, chunk_tokens: int) -> float:
    """Relative slowdown of chunked prefilling versus one-shot prefilling.

    Scales the paper's reference measurement with the number of chunks: cutting
    the input into more chunks loses more attention-kernel efficiency, saturating
    well below a 2x slowdown.
    """
    if chunk_tokens <= 0:
        raise ValueError("chunk_tokens must be positive")
    if num_tokens <= chunk_tokens:
        return 0.0
    num_chunks = math.ceil(num_tokens / chunk_tokens)
    reference_chunks = math.ceil(CHUNKED_REFERENCE_INPUT / CHUNKED_REFERENCE_CHUNK)
    scale = math.log2(1 + num_chunks) / math.log2(1 + reference_chunks)
    return min(0.6, CHUNKED_ATTENTION_PENALTY_REFERENCE * scale)


class LatencyModel:
    """Latency of prefill / decode passes of ``model`` on ``gpu``.

    Prefill timings are memoized per instance, keyed on the *full* argument
    tuple of each query (token counts, execution mode, chunk size, parallel
    degrees), so a cached timing is bit-identical to a fresh computation — the
    cache stores exactly what the computation returned.  Schedulers, JCT
    profilers, and engines query the same few (new, cached, mode) buckets over
    and over during a simulation; the memo turns those repeats into dictionary
    hits.

    Args:
        model: Transformer architecture.
        gpu: Device the forward pass runs on (one shard for parallel setups).
        interconnect: Link used when ``tensor_parallel > 1``.
    """

    def __init__(self, model: ModelConfig, gpu: GPUSpec,
                 interconnect: Interconnect | None = None) -> None:
        self._model = model
        self._gpu = gpu
        self._interconnect = interconnect
        self._flops = FlopsModel(model)
        self._prefill_memo: dict[tuple, PrefillTiming] = {}

    @property
    def model(self) -> ModelConfig:
        return self._model

    @property
    def gpu(self) -> GPUSpec:
        return self._gpu

    @property
    def interconnect(self) -> Interconnect | None:
        return self._interconnect

    # ------------------------------------------------------------- prefill

    def prefill_time(self, num_new_tokens: int, *, num_cached_tokens: int = 0,
                     mode: PrefillMode = PrefillMode.FULL,
                     chunk_tokens: int = 2048,
                     tensor_parallel: int = 1,
                     pipeline_parallel: int = 1) -> PrefillTiming:
        """Latency of prefilling ``num_new_tokens`` (given a cached prefix).

        For pipeline parallelism this returns the *latency* of the request
        (stages execute one after the other for a single request); the serving
        simulator divides the work across per-stage resources to capture the
        throughput benefit and the bubbles.

        Memoized on the full argument tuple; a hit returns the exact
        :class:`PrefillTiming` (frozen) a fresh computation would produce.
        """
        key = (num_new_tokens, num_cached_tokens, mode, chunk_tokens,
               tensor_parallel, pipeline_parallel)
        cached = self._prefill_memo.get(key)
        if cached is None:
            cached = self._prefill_time_uncached(
                num_new_tokens, num_cached_tokens, mode, chunk_tokens,
                tensor_parallel, pipeline_parallel,
            )
            if len(self._prefill_memo) >= LATENCY_MEMO_MAX_ENTRIES:
                self._prefill_memo.clear()
            self._prefill_memo[key] = cached
        return cached

    def _prefill_time_uncached(self, num_new_tokens: int, num_cached_tokens: int,
                               mode: PrefillMode, chunk_tokens: int,
                               tensor_parallel: int,
                               pipeline_parallel: int) -> PrefillTiming:
        if num_new_tokens <= 0:
            return PrefillTiming(0.0, 0.0, self._gpu.kernel_launch_overhead)
        breakdown = self._flops.prefill(num_new_tokens, num_cached_tokens=num_cached_tokens)
        sustained = self._gpu.sustained_flops(self._model.weight_bytes_per_param)
        compute = breakdown.total / (sustained * tensor_parallel)

        if mode is PrefillMode.CHUNKED:
            compute *= 1.0 + chunked_prefill_penalty(num_new_tokens, chunk_tokens)

        overhead = self._gpu.kernel_launch_overhead * pipeline_parallel
        if mode is PrefillMode.HYBRID:
            num_chunks = math.ceil(num_new_tokens / max(chunk_tokens, 1))
            overhead += num_chunks * HYBRID_PER_CHUNK_OVERHEAD

        communication = 0.0
        if tensor_parallel > 1:
            if self._interconnect is None:
                raise ValueError("tensor parallelism requires an interconnect")
            message = (
                num_new_tokens
                * self._model.hidden_size
                * self._model.activation_bytes_per_element
            )
            per_layer = 2 * allreduce_time(message, tensor_parallel, self._interconnect)
            communication += self._model.num_layers * per_layer
        if pipeline_parallel > 1:
            if self._interconnect is None:
                raise ValueError("pipeline parallelism requires an interconnect")
            message = (
                num_new_tokens
                * self._model.hidden_size
                * self._model.activation_bytes_per_element
            )
            communication += (pipeline_parallel - 1) * (
                message / self._interconnect.bandwidth + self._interconnect.latency
            )

        return PrefillTiming(
            compute_time=compute,
            communication_time=communication,
            overhead_time=overhead,
        )

    # -------------------------------------------------------------- decode

    def decode_time(self, prompt_length: int, num_output_tokens: int, *,
                    batch_size: int = 32) -> float:
        """Aggregate time to decode ``num_output_tokens`` under continuous batching.

        Each decode step is the max of the memory-bound term (streaming the
        weights once per batch, amortised over ``batch_size`` requests) and the
        compute term for this request's share.  This is only used by the
        motivation benchmark (prefill-only latency vs. generative latency).
        """
        if num_output_tokens <= 0:
            return 0.0
        weight_stream = self._model.weight_bytes / self._gpu.memory_bandwidth / max(batch_size, 1)
        total = 0.0
        sustained = self._gpu.sustained_flops(self._model.weight_bytes_per_param)
        for i in range(num_output_tokens):
            step_flops = self._flops.decode_step(prompt_length + i).total
            kv_stream = (
                self._model.kv_bytes_per_token * (prompt_length + i) / self._gpu.memory_bandwidth
            )
            total += max(weight_stream + kv_stream, step_flops / sustained)
        return total

    def request_time(self, prompt_length: int, num_output_tokens: int, *,
                     batch_size: int = 32) -> float:
        """End-to-end time of a generative request (prefill + decode)."""
        prefill = self.prefill_time(prompt_length).total
        if num_output_tokens <= 1:
            return prefill
        return prefill + self.decode_time(prompt_length, num_output_tokens - 1, batch_size=batch_size)
