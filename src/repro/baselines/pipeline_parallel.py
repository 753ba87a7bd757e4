"""Pipeline parallel baseline (vLLM with PP=2).

The model's layers are split into stages, one per GPU; each request flows
through the stages in order, so single-request latency stays close to the
single-GPU case while two requests can overlap — minus the bubbles that appear
when request lengths vary (the simulation's per-stage resources produce exactly
those bubbles).  Per-GPU weights and KV halve, so the maximum input length
grows, but the activations of a full sequence still have to fit in one stage.
"""

from __future__ import annotations

from repro.core.engine import EngineSpec
from repro.model.memory import PrefillMode


def pipeline_parallel_spec(*, degree: int = 2, enable_prefix_caching: bool = True,
                           kv_block_size: int = 256) -> EngineSpec:
    """Build the pipeline parallel baseline spec.

    Args:
        degree: Pipeline parallel degree (the paper uses 2).
    """
    return EngineSpec(
        name="pipeline-parallel",
        prefill_mode=PrefillMode.FULL,
        scheduling_policy="fcfs",
        reserve_full_kv=True,
        pipeline_parallel=degree,
        enable_prefix_caching=enable_prefix_caching,
        kv_block_size=kv_block_size,
        description=f"Pipeline parallel (PP={degree}): staged layers, overlapping requests, FCFS",
    )
