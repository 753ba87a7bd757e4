"""Baseline engines the paper compares against.

All four baselines are vLLM configurations in the paper and are expressed here
as :class:`~repro.core.engine.EngineSpec` instances running on the same
substrates as PrefillOnly:

* **PagedAttention** — vanilla vLLM: full prefilling, full KV retention,
  first-come-first-served scheduling, prefix caching enabled.
* **Chunked Prefill** — Sarathi-style chunked prefilling; handles longer inputs
  on one GPU at the cost of attention-kernel efficiency.
* **Tensor Parallel** — TP=2 across the instance's two GPUs; halves the
  per-GPU footprint and compute but pays all-reduce communication every layer.
* **Pipeline Parallel** — PP=2; halves per-GPU weights and KV, keeps
  single-request latency, and suffers pipeline bubbles under varying lengths.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.baselines.paged_attention": ("paged_attention_spec",),
    "repro.baselines.chunked_prefill": ("chunked_prefill_spec",),
    "repro.baselines.tensor_parallel": ("tensor_parallel_spec",),
    "repro.baselines.pipeline_parallel": ("pipeline_parallel_spec",),
    "repro.baselines.registry": ("baseline_specs", "all_engine_specs", "get_engine_spec"),
})
