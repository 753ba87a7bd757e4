"""Analytical GPU memory model of a transformer forward pass.

This module answers the questions that drive the paper's capacity results
(Table 2, Figure 3, Figure 10): how many bytes do the weights, the KV cache,
and the transient activation tensors occupy, under each of the prefill
execution modes the paper compares?

Execution modes
---------------

* ``FULL``     — vanilla prefilling (vLLM/PagedAttention baseline): the whole
  sequence flows through every layer at once, so the MLP intermediate tensors
  are materialised for every token simultaneously, and the KV cache of every
  layer is retained.
* ``CHUNKED``  — chunked prefilling (Sarathi-style baseline): the sequence is
  split into chunks which each flow through the *entire* model, so activation
  peaks are bounded by the chunk size but the KV cache of all layers of all
  previous chunks must stay resident between chunks.
* ``HYBRID``   — the paper's hybrid prefilling: position-wise (linear) layers
  run chunk-by-chunk while attention runs over the whole sequence, so the
  request finishes in a single forward pass; only one layer's KV plus the
  residual stream needs to be resident, and the KV cache may be discarded or
  offloaded afterwards.

All results are plain byte counts; converting capacity into a maximum input
length is the job of :mod:`repro.analysis.mil`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.model.config import ModelConfig
from repro.model.layers import LayerKind, build_layer_stack


class PrefillMode(enum.Enum):
    """How the forward pass of a prefill is executed."""

    FULL = "full"
    CHUNKED = "chunked"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class ActivationProfile:
    """Per-token transient activation costs of one transformer block.

    Attributes:
        residual_bytes: Residual-stream tensor (input and output of each block).
        qkv_bytes: Q, K, V projections of one attention layer.
        mlp_peak_bytes: Largest MLP intermediate tensor (gate+up fused) plus the
            post-activation tensor that coexists with it.
        attention_output_bytes: Attention output before the residual add.
    """

    residual_bytes: float
    qkv_bytes: float
    mlp_peak_bytes: float
    attention_output_bytes: float

    @property
    def block_peak_bytes(self) -> float:
        """Per-token peak transient bytes while one block is executing."""
        # The residual stream (input + output copies), and either the attention
        # working set or the MLP working set, whichever is larger.
        attn_working = self.qkv_bytes + self.attention_output_bytes
        return 2 * self.residual_bytes + max(attn_working, self.mlp_peak_bytes)


class MemoryModel:
    """Analytical memory model for one :class:`ModelConfig`.

    Args:
        model: Architecture to model.
        workspace_fraction: Fraction of weight bytes reserved for framework
            workspace (cuBLAS workspaces, CUDA graphs, tokenizer buffers, ...).
            Calibrated so that the Table-2 maximum-input-length ordering and
            rough ratios reproduce; it is the single fudge factor of the model.
    """

    def __init__(self, model: ModelConfig, *, workspace_fraction: float = 0.04) -> None:
        self._model = model
        self._workspace_fraction = workspace_fraction

    @property
    def model(self) -> ModelConfig:
        return self._model

    # -------------------------------------------------------------- weights

    def weight_bytes(self, *, tensor_parallel: int = 1, pipeline_parallel: int = 1) -> float:
        """Weight bytes resident on one GPU under the given parallelism."""
        shards = tensor_parallel * pipeline_parallel
        if shards < 1:
            raise ValueError("parallel degrees must be >= 1")
        return self._model.weight_bytes / shards

    def workspace_bytes(self) -> float:
        """Framework workspace reserved on each GPU."""
        return self._model.weight_bytes * self._workspace_fraction

    # ------------------------------------------------------------- KV cache

    def kv_cache_bytes(self, num_tokens: int, *, num_layers: int | None = None,
                       tensor_parallel: int = 1) -> float:
        """KV-cache bytes for ``num_tokens`` across ``num_layers`` layers.

        Tensor parallelism shards the KV heads across GPUs, so the per-GPU KV
        footprint divides by the TP degree.  Pipeline parallelism is expressed
        by passing the per-stage layer count via ``num_layers``.
        """
        layers = self._model.num_layers if num_layers is None else num_layers
        per_token = 2 * self._model.kv_dim * self._model.kv_bytes_per_element * layers
        return num_tokens * per_token / tensor_parallel

    def kv_cache_bytes_one_layer(self, num_tokens: int, *, tensor_parallel: int = 1) -> float:
        """KV-cache bytes of a single layer (what hybrid prefilling keeps live)."""
        return self.kv_cache_bytes(num_tokens, num_layers=1, tensor_parallel=tensor_parallel)

    # ----------------------------------------------------------- activations

    def activation_profile(self, *, tensor_parallel: int = 1) -> ActivationProfile:
        """Per-token activation profile, optionally sharded by tensor parallelism."""
        model = self._model
        act = model.activation_bytes_per_element
        return ActivationProfile(
            residual_bytes=model.hidden_size * act,
            qkv_bytes=(model.q_dim + 2 * model.kv_dim) * act / tensor_parallel,
            mlp_peak_bytes=(2 * model.intermediate_size + model.intermediate_size)
            * act / tensor_parallel,
            attention_output_bytes=model.q_dim * act / tensor_parallel,
        )

    def activation_peak_bytes(self, num_tokens: int, *, mode: PrefillMode,
                              chunk_tokens: int = 2048, tensor_parallel: int = 1) -> float:
        """Peak transient activation bytes while prefilling ``num_tokens``.

        ``FULL`` materialises the per-block working set for every token at
        once.  ``CHUNKED`` bounds everything by the chunk size.  ``HYBRID``
        bounds the position-wise working set by the chunk size but keeps the
        whole-sequence residual stream and one layer's Q/K/V live for the
        un-chunked attention.
        """
        profile = self.activation_profile(tensor_parallel=tensor_parallel)
        if mode is PrefillMode.FULL:
            return num_tokens * profile.block_peak_bytes
        if mode is PrefillMode.CHUNKED:
            tokens = min(num_tokens, chunk_tokens)
            return tokens * profile.block_peak_bytes
        if mode is PrefillMode.HYBRID:
            chunked_part = min(num_tokens, chunk_tokens) * profile.mlp_peak_bytes
            # Whole-sequence tensors that hybrid prefilling cannot chunk: the
            # residual stream (in/out), one layer's Q/K/V for attention, and the
            # attention output.
            resident_per_token = (
                2 * profile.residual_bytes
                + profile.qkv_bytes
                + profile.attention_output_bytes
            )
            return num_tokens * resident_per_token + chunked_part
        raise ValueError(f"unknown prefill mode: {mode!r}")

    # ------------------------------------------------------ memory timelines

    def prefill_memory_trace(self, num_tokens: int, *, mode: PrefillMode,
                             chunk_tokens: int = 2048,
                             retain_kv_layers: int | None = None) -> list[tuple[float, float]]:
        """Analytic GPU-memory-over-time trace of one prefill (Figure 3).

        Returns a list of ``(progress, bytes)`` samples where ``progress`` runs
        from 0 to 1 over the forward pass.  The trace walks the layer stack and
        records, for every layer, the resident bytes while that layer executes:
        weights + accumulated KV cache + the layer's transient activations.
        """
        stack = build_layer_stack(self._model, include_lm_head=False)
        profile = self.activation_profile()
        weights = self.weight_bytes() + self.workspace_bytes()
        kv_per_layer = self.kv_cache_bytes_one_layer(num_tokens)
        retain = self._model.num_layers if retain_kv_layers is None else retain_kv_layers

        if mode is PrefillMode.FULL:
            active_tokens = num_tokens
        else:
            active_tokens = min(num_tokens, chunk_tokens)

        samples: list[tuple[float, float]] = []
        kv_resident = 0.0
        residual = num_tokens * 2 * profile.residual_bytes
        total_layers = len(stack)
        for spec in stack:
            if spec.kind is LayerKind.ATTENTION:
                kv_resident = min(kv_resident + kv_per_layer, retain * kv_per_layer)
                # Attention always sees the whole sequence (it is never chunked).
                transient = num_tokens * (profile.qkv_bytes + profile.attention_output_bytes)
            elif spec.kind is LayerKind.MLP:
                tokens = num_tokens if mode is PrefillMode.FULL else active_tokens
                transient = tokens * profile.mlp_peak_bytes
            else:
                transient = 0.0
            resident = weights + kv_resident + residual + transient
            samples.append((spec.index / max(total_layers - 1, 1), resident))
        return samples

    def peak_from_trace(self, trace: list[tuple[float, float]]) -> float:
        """Peak bytes of a memory trace produced by :meth:`prefill_memory_trace`."""
        return max(point for _, point in trace) if trace else 0.0
