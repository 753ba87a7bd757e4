"""Maximum-input-length ablation — Figure 10 of the paper.

Figure 10 decomposes PrefillOnly's MIL improvement into three incremental
steps on top of the vanilla and chunked-prefill baselines:

1. **Chunking** the position-wise layers (hybrid prefilling), but naively
   concatenating the chunk outputs at the end, which transiently keeps both the
   per-chunk outputs and the concatenated copy alive;
2. **+ output preallocation**, which writes each chunk's output directly into a
   pre-allocated tensor and removes the concatenation copy;
3. **+ in-place computation**, which reuses the input tensor as the output when
   the shapes agree and removes one more whole-sequence buffer.

The per-token resident footprints of the three stages are derived from the same
activation profile the memory model uses, so the ablation is consistent with
Table 2's end-to-end MIL numbers (the final stage equals PrefillOnly's MIL).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import EngineSpec
from repro.core.profile_run import DEFAULT_GPU_MEMORY_UTILIZATION
from repro.analysis.mil import max_input_length
from repro.hardware.gpu import GPUSpec
from repro.model.config import ModelConfig
from repro.model.memory import MemoryModel, PrefillMode
from repro.perf.runner import ParallelRunner


@dataclass(frozen=True)
class MILAblationStep:
    """One bar of the Figure 10 ablation."""

    name: str
    max_input_length: int
    improvement_over_vanilla: float
    hurts_throughput: bool


def _search_limit(fits) -> int:
    """Doubling + binary search over a feasibility predicate."""
    if not fits(1):
        return 0
    low, high = 1, 2
    ceiling = 4_000_000
    while high <= ceiling and fits(high):
        low = high
        high *= 2
    if high > ceiling:
        return ceiling
    while high - low > 1:
        middle = (low + high) // 2
        if fits(middle):
            low = middle
        else:
            high = middle
    return low


def _hybrid_variant_mil(model: ModelConfig, gpu: GPUSpec, *, chunk_tokens: int,
                        extra_residual_copies: int,
                        workspace_fraction: float = 0.04) -> int:
    """MIL of a hybrid-prefilling variant with extra whole-sequence buffers.

    ``extra_residual_copies`` is the number of additional residual-stream-sized
    whole-sequence tensors the variant keeps alive: 1 for naive chunk-output
    concatenation, 0 for preallocated output; the fully optimised in-place
    variant is the memory model's default and removes one of the two copies the
    default plan already counts (expressed as ``-1``).
    """
    memory = MemoryModel(model, workspace_fraction=workspace_fraction)
    profile = memory.activation_profile()
    fixed = memory.weight_bytes() + memory.workspace_bytes()
    chunk_bytes = chunk_tokens * profile.mlp_peak_bytes
    usable = gpu.memory_bytes * DEFAULT_GPU_MEMORY_UTILIZATION

    def fits(num_tokens: int) -> bool:
        resident_per_token = (
            (2 + extra_residual_copies) * profile.residual_bytes
            + profile.qkv_bytes
            + profile.attention_output_bytes
        )
        one_layer_kv = memory.kv_cache_bytes_one_layer(num_tokens)
        total = fixed + num_tokens * resident_per_token + chunk_bytes + one_layer_kv
        return total <= usable

    return _search_limit(fits)


def _ablation_variant_task(task: tuple) -> int:
    """Compute one ablation bar's MIL (module-level for the parallel runner)."""
    kind, model, gpu, payload, chunk_tokens = task
    if kind == "engine":
        return max_input_length(payload, model, gpu)
    return _hybrid_variant_mil(
        model, gpu, chunk_tokens=chunk_tokens, extra_residual_copies=payload
    )


def mil_ablation(model: ModelConfig, gpu: GPUSpec, *,
                 vanilla_spec: EngineSpec, chunked_spec: EngineSpec,
                 chunk_tokens: int = 2048,
                 runner: ParallelRunner | None = None) -> list[MILAblationStep]:
    """Compute the Figure 10 bars for one model / GPU pair.

    The five bars are independent binary searches, so they fan across the
    parallel runner's workers when one is given; results are byte-identical
    to the serial default.

    Args:
        model: Model to evaluate (the paper uses Qwen-2.5-32B FP8).
        gpu: GPU to evaluate (the paper uses one A100).
        vanilla_spec: The vanilla vLLM (PagedAttention) spec.
        chunked_spec: The chunked prefill spec.
        chunk_tokens: Hybrid prefilling chunk size for the three hybrid stages.
        runner: Optional parallel fan-out; None runs serially in-process.
    """
    runner = runner or ParallelRunner(max_workers=1)
    tasks = [
        ("engine", model, gpu, vanilla_spec, chunk_tokens),
        ("engine", model, gpu, chunked_spec, chunk_tokens),
        ("hybrid", model, gpu, 1, chunk_tokens),
        ("hybrid", model, gpu, 0, chunk_tokens),
        ("hybrid", model, gpu, -1, chunk_tokens),
    ]
    vanilla, chunked, chunking_only, with_prealloc, with_inplace = runner.map(
        _ablation_variant_task, tasks
    )

    def improvement(value: int) -> float:
        return value / vanilla if vanilla else float("inf")

    return [
        MILAblationStep("vanilla-vllm", vanilla, 1.0, hurts_throughput=False),
        MILAblationStep("chunked-prefill", chunked, improvement(chunked), hurts_throughput=True),
        MILAblationStep("hybrid-chunking", chunking_only, improvement(chunking_only),
                        hurts_throughput=False),
        MILAblationStep("hybrid+preallocation", with_prealloc, improvement(with_prealloc),
                        hurts_throughput=False),
        MILAblationStep("hybrid+in-place", with_inplace, improvement(with_inplace),
                        hurts_throughput=False),
    ]
