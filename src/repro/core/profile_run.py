"""The engine's startup profile run.

PrefillOnly asks the user for the maximum input length (MIL) the deployment
must handle, forwards a fake request of that length through the model, measures
the peak GPU memory the forward pass needs, and dedicates whatever is left to
the prefix KV cache.  This module reproduces that procedure on the analytical
memory model.

Two accounting regimes exist, matching how the engines actually hold KV during
a forward pass:

* Baseline engines (``FULL`` / ``CHUNKED`` prefilling) draw the in-flight
  request's KV cache *from the block pool* (that is how vLLM allocates), so the
  profile run budgets the pool as "everything left after weights, workspace and
  activations", and a request is feasible only if its full KV fits in that pool.
* PrefillOnly (``HYBRID``) keeps only ``retain_kv_layers`` layers of KV live
  during the pass and never charges the pool for the in-flight request, so the
  retained slice is part of the forward-pass peak instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapacityError
from repro.hardware.gpu import GPUSpec
from repro.model.config import ModelConfig
from repro.model.memory import MemoryModel, PrefillMode

#: Fraction of GPU memory the engine is allowed to use, mirroring vLLM's
#: ``gpu_memory_utilization`` flag (the remainder covers the CUDA context,
#: NCCL buffers, and allocator fragmentation).
DEFAULT_GPU_MEMORY_UTILIZATION = 0.92


@dataclass(frozen=True)
class ProfileRunResult:
    """Outcome of the profile run on one GPU shard.

    Attributes:
        max_input_length: The MIL the profile run was sized for.
        peak_forward_bytes: Peak memory of the profile forward pass, excluding
            any KV drawn from the block pool (weights, workspace, activations,
            plus the KV retained outside the pool during a hybrid pass).
        kv_budget_bytes: Bytes left over for the KV-cache block pool.
        kv_budget_tokens: The same budget expressed in tokens of the KV this
            shard stores per token (all layers for TP / single GPU, one stage's
            layers for PP).
        requires_pool_for_inflight: True for baseline modes whose in-flight
            request KV is drawn from the pool.
    """

    max_input_length: int
    peak_forward_bytes: float
    kv_budget_bytes: float
    kv_budget_tokens: int
    requires_pool_for_inflight: bool
    usable_memory_bytes: float = 0.0


#: Interned profile-run results keyed on every input of :func:`run_profile`.
#: Every replica of a homogeneous fleet (and every autoscaled clone) runs the
#: identical profile pass; interning makes replica N's startup a dict hit.
#: The result is frozen, so sharing one instance is safe.
_PROFILE_MEMO: dict[tuple, ProfileRunResult] = {}


def run_profile(model: ModelConfig, gpu: GPUSpec, *, max_input_length: int,
                mode: PrefillMode, chunk_tokens: int = 2048,
                retain_kv_layers: int | None = None,
                tensor_parallel: int = 1, pipeline_parallel: int = 1,
                workspace_fraction: float = 0.04,
                gpu_memory_utilization: float = DEFAULT_GPU_MEMORY_UTILIZATION) -> ProfileRunResult:
    """Run the profile pass and budget the prefix KV cache.

    Successful results are memoized on the full argument tuple (failures are
    recomputed — they are cheap and their messages embed nothing mutable).

    Raises:
        CapacityError: if a single request of ``max_input_length`` tokens cannot
            be served under the given execution mode on this GPU — either the
            forward pass itself does not fit, or (for baseline modes) the KV
            pool left over is smaller than the request's own KV cache.
    """
    key = (model, gpu, max_input_length, mode, chunk_tokens, retain_kv_layers,
           tensor_parallel, pipeline_parallel, workspace_fraction,
           gpu_memory_utilization)
    cached = _PROFILE_MEMO.get(key)
    if cached is None:
        cached = _run_profile_uncached(
            model, gpu, max_input_length=max_input_length, mode=mode,
            chunk_tokens=chunk_tokens, retain_kv_layers=retain_kv_layers,
            tensor_parallel=tensor_parallel, pipeline_parallel=pipeline_parallel,
            workspace_fraction=workspace_fraction,
            gpu_memory_utilization=gpu_memory_utilization,
        )
        _PROFILE_MEMO[key] = cached
    return cached


def _run_profile_uncached(model: ModelConfig, gpu: GPUSpec, *, max_input_length: int,
                          mode: PrefillMode, chunk_tokens: int,
                          retain_kv_layers: int | None,
                          tensor_parallel: int, pipeline_parallel: int,
                          workspace_fraction: float,
                          gpu_memory_utilization: float) -> ProfileRunResult:
    if max_input_length <= 0:
        raise CapacityError("max_input_length must be positive")
    if not 0.0 < gpu_memory_utilization <= 1.0:
        raise CapacityError("gpu_memory_utilization must be in (0, 1]")
    usable = gpu.memory_bytes * gpu_memory_utilization
    memory = MemoryModel(model, workspace_fraction=workspace_fraction)
    weights = memory.weight_bytes(
        tensor_parallel=tensor_parallel, pipeline_parallel=pipeline_parallel
    )
    workspace = memory.workspace_bytes()
    activation = memory.activation_peak_bytes(
        max_input_length, mode=mode, chunk_tokens=chunk_tokens, tensor_parallel=tensor_parallel
    )
    stage_layers = model.num_layers // pipeline_parallel

    pool_for_inflight = mode is not PrefillMode.HYBRID
    if pool_for_inflight:
        retained_kv = 0.0
    else:
        layers = 1 if retain_kv_layers is None else min(retain_kv_layers, stage_layers)
        retained_kv = memory.kv_cache_bytes(
            max_input_length, num_layers=layers, tensor_parallel=tensor_parallel
        )

    peak = weights + workspace + activation + retained_kv
    if peak > usable:
        raise CapacityError(
            f"a {max_input_length}-token request needs {peak / (1 << 30):.1f} GiB in mode "
            f"{mode.value!r} but {gpu.display_name} offers {usable / (1 << 30):.1f} GiB "
            f"(at {gpu_memory_utilization:.0%} utilisation)",
            required=int(peak),
            available=int(usable),
        )

    kv_budget_bytes = usable - peak
    per_token = memory.kv_cache_bytes(1, num_layers=stage_layers, tensor_parallel=tensor_parallel)
    kv_budget_tokens = int(kv_budget_bytes // per_token) if per_token > 0 else 0

    if pool_for_inflight and kv_budget_tokens < max_input_length:
        raise CapacityError(
            f"mode {mode.value!r} must hold the full KV cache of a {max_input_length}-token "
            f"request in the block pool, but the pool only fits {kv_budget_tokens} tokens on "
            f"{gpu.display_name}",
            required=max_input_length,
            available=kv_budget_tokens,
        )

    return ProfileRunResult(
        max_input_length=max_input_length,
        peak_forward_bytes=peak,
        kv_budget_bytes=kv_budget_bytes,
        kv_budget_tokens=kv_budget_tokens,
        requires_pool_for_inflight=pool_for_inflight,
        usable_memory_bytes=usable,
    )
