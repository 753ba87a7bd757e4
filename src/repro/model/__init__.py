"""Model substrate: transformer architecture descriptions and analytical cost models.

This package replaces the real LLM checkpoints used by the paper (Llama-3.1-8B,
DeepSeek-R1-Distill-Qwen-32B-FP8, Llama-3.3-70B-Instruct-FP8) with architecture
records carrying the published hyper-parameters.  Everything the serving engine
needs — weight bytes, KV-cache bytes per token, activation bytes per token,
prefill/decode FLOPs, and latency on a given GPU — is derived analytically from
those hyper-parameters.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.model.config": (
        "ModelConfig", "MODEL_REGISTRY", "get_model", "list_models", "LLAMA_3_1_8B",
        "QWEN_32B_FP8", "LLAMA_3_3_70B_FP8",
    ),
    "repro.model.layers": (
        "LayerKind", "LayerSpec", "MLPTensorReport", "build_layer_stack", "mlp_tensor_report",
    ),
    "repro.model.flops": ("FlopsModel",),
    "repro.model.memory": ("MemoryModel", "ActivationProfile"),
    "repro.model.latency": ("LatencyModel",),
})
