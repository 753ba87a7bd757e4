"""Tensor parallel baseline (vLLM with TP=2).

The model's weights, KV cache, and activations are sharded across the
instance's GPUs, which roughly halves the per-GPU footprint (highest maximum
input length of the baselines) and halves the per-request compute time — but
every layer pays two all-reduces over the interconnect, which wastes GPU time
and caps throughput, especially without NVLink (Figure 8 of the paper).
"""

from __future__ import annotations

from repro.core.engine import EngineSpec
from repro.model.memory import PrefillMode


def tensor_parallel_spec(*, degree: int = 2, enable_prefix_caching: bool = True,
                         kv_block_size: int = 256) -> EngineSpec:
    """Build the tensor parallel baseline spec.

    Args:
        degree: Tensor parallel degree (the paper uses 2).
    """
    return EngineSpec(
        name="tensor-parallel",
        prefill_mode=PrefillMode.FULL,
        scheduling_policy="fcfs",
        reserve_full_kv=True,
        tensor_parallel=degree,
        enable_prefix_caching=enable_prefix_caching,
        kv_block_size=kv_block_size,
        description=f"Tensor parallel (TP={degree}): sharded weights/KV, all-reduce per layer, FCFS",
    )
