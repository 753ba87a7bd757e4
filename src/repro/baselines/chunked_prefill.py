"""Chunked prefill baseline (Sarathi-Serve-style).

The input is processed chunk-by-chunk through the whole model, which bounds the
activation spikes by the chunk size and therefore raises the maximum input
length — but the KV cache of all layers of all previous chunks must stay
resident between chunks, and splitting the attention computation lowers kernel
efficiency (the paper measures a 14% end-to-end slowdown at a 20,000-token
input with 512-token chunks).
"""

from __future__ import annotations

from repro.core.engine import EngineSpec
from repro.model.memory import PrefillMode


def chunked_prefill_spec(*, chunk_tokens: int = 512, enable_prefix_caching: bool = True,
                         kv_block_size: int = 256) -> EngineSpec:
    """Build the chunked prefill baseline spec.

    Args:
        chunk_tokens: Prefill chunk size (the paper's reference uses 512).
    """
    return EngineSpec(
        name="chunked-prefill",
        prefill_mode=PrefillMode.CHUNKED,
        scheduling_policy="fcfs",
        reserve_full_kv=True,
        chunk_tokens=chunk_tokens,
        enable_prefix_caching=enable_prefix_caching,
        kv_block_size=kv_block_size,
        description="Chunked prefill: chunk-by-chunk prefilling, full KV retention, FCFS",
    )
