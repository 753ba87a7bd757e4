"""PagedAttention baseline (vanilla vLLM).

Full prefilling in one forward pass, the KV cache of every layer retained in
the block pool for the whole pass, first-come-first-served scheduling, and
automatic prefix caching — the configuration the paper calls "PagedAttention".
Its maximum input length is limited by having to fit both the full KV cache and
the un-chunked activation spikes of one request in GPU memory.
"""

from __future__ import annotations

from repro.core.engine import EngineSpec
from repro.model.memory import PrefillMode


def paged_attention_spec(*, enable_prefix_caching: bool = True,
                         kv_block_size: int = 256) -> EngineSpec:
    """Build the PagedAttention baseline spec."""
    return EngineSpec(
        name="paged-attention",
        prefill_mode=PrefillMode.FULL,
        scheduling_policy="fcfs",
        reserve_full_kv=True,
        enable_prefix_caching=enable_prefix_caching,
        kv_block_size=kv_block_size,
        description="vLLM PagedAttention: full prefilling, full KV retention, FCFS",
    )
