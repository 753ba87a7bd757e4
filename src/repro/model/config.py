"""Transformer architecture configurations.

A :class:`ModelConfig` carries the architecture hyper-parameters that determine
every quantity the serving engine cares about: parameter count (and therefore
weight bytes and dense FLOPs), KV-cache bytes per token, and the sizes of the
intermediate tensors allocated by the MLP blocks (the memory spikes in Figure 3
and Figure 4 of the paper).

The three registered models correspond to Table 3 of the paper:

* ``llama-3.1-8b`` — low-end GPU scenario (NVIDIA L4), bfloat16 weights.
* ``qwen-32b-fp8`` — middle-end GPU scenario (NVIDIA A100 40GB), FP8 weights.
* ``llama-3.3-70b-fp8`` — high-end GPU scenario (NVIDIA H100 80GB), FP8 weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description of a decoder-only transformer.

    Attributes:
        name: Registry key, e.g. ``"llama-3.1-8b"``.
        display_name: Human-readable model identifier (matches the paper's Table 3).
        num_layers: Number of transformer blocks.
        hidden_size: Residual-stream width.
        num_attention_heads: Query heads.
        num_kv_heads: Key/value heads (grouped-query attention).
        head_dim: Per-head dimension.
        intermediate_size: MLP up/gate projection width (SwiGLU).
        vocab_size: Vocabulary size (embedding / LM-head rows).
        weight_bytes_per_param: Bytes per weight element (2 for bf16, 1 for FP8).
        kv_bytes_per_element: Bytes per KV-cache element.
        activation_bytes_per_element: Bytes per activation element during compute.
        max_position_embeddings: Architectural context limit.
    """

    name: str
    display_name: str
    num_layers: int
    hidden_size: int
    num_attention_heads: int
    num_kv_heads: int
    head_dim: int
    intermediate_size: int
    vocab_size: int
    weight_bytes_per_param: float = 2.0
    kv_bytes_per_element: float = 2.0
    activation_bytes_per_element: float = 2.0
    max_position_embeddings: int = 131_072

    def __post_init__(self) -> None:
        if self.num_layers <= 0 or self.hidden_size <= 0:
            raise ConfigurationError(f"model {self.name!r} has non-positive dimensions")
        if self.num_attention_heads % self.num_kv_heads != 0:
            raise ConfigurationError(
                f"model {self.name!r}: attention heads ({self.num_attention_heads}) must be a "
                f"multiple of KV heads ({self.num_kv_heads})"
            )
        if self.num_attention_heads * self.head_dim != self.hidden_size:
            # Some models use head_dim != hidden/heads; allow it but it must be intentional.
            pass

    # ------------------------------------------------------------------ sizes
    #
    # Derived sizes are ``cached_property``: they are pure functions of the
    # frozen fields, computed once per config instead of on every access.
    # The latency / FLOPs models read them per forward pass, so the caching
    # is on a hot analytic path (and trivially bit-identical).

    @cached_property
    def q_dim(self) -> int:
        """Total query projection width."""
        return self.num_attention_heads * self.head_dim

    @cached_property
    def kv_dim(self) -> int:
        """Total key (or value) projection width."""
        return self.num_kv_heads * self.head_dim

    @cached_property
    def num_parameters(self) -> int:
        """Approximate total parameter count derived from the architecture."""
        embed = self.vocab_size * self.hidden_size
        attn = self.num_layers * (
            self.hidden_size * self.q_dim            # Wq
            + 2 * self.hidden_size * self.kv_dim     # Wk, Wv
            + self.q_dim * self.hidden_size          # Wo
        )
        mlp = self.num_layers * 3 * self.hidden_size * self.intermediate_size  # gate, up, down
        norms = self.num_layers * 2 * self.hidden_size + self.hidden_size
        lm_head = self.vocab_size * self.hidden_size
        return embed + attn + mlp + norms + lm_head

    @cached_property
    def weight_bytes(self) -> int:
        """Total bytes occupied by the model weights."""
        return int(self.num_parameters * self.weight_bytes_per_param)

    @cached_property
    def kv_bytes_per_token_per_layer(self) -> int:
        """KV-cache bytes contributed by one token in one layer (K and V)."""
        return int(2 * self.kv_dim * self.kv_bytes_per_element)

    @cached_property
    def kv_bytes_per_token(self) -> int:
        """KV-cache bytes contributed by one token across all layers."""
        return self.num_layers * self.kv_bytes_per_token_per_layer

    @cached_property
    def mlp_intermediate_elements_per_token(self) -> int:
        """Elements of the fused gate+up MLP intermediate tensor per token.

        For SwiGLU MLPs this is ``2 * intermediate_size`` (the paper's Figure 4:
        28,672 elements per token for Llama-3.1-8B, 14x the one-layer KV cache).
        """
        return 2 * self.intermediate_size

    def describe(self) -> dict:
        """Return a plain-dict summary used by reports and the CLI."""
        return {
            "name": self.name,
            "display_name": self.display_name,
            "num_layers": self.num_layers,
            "hidden_size": self.hidden_size,
            "num_attention_heads": self.num_attention_heads,
            "num_kv_heads": self.num_kv_heads,
            "head_dim": self.head_dim,
            "intermediate_size": self.intermediate_size,
            "parameters_billions": round(self.num_parameters / 1e9, 2),
            "weight_gib": round(self.weight_bytes / (1 << 30), 2),
            "kv_bytes_per_token": self.kv_bytes_per_token,
        }


LLAMA_3_1_8B = ModelConfig(
    name="llama-3.1-8b",
    display_name="meta-llama/Llama-3.1-8B",
    num_layers=32,
    hidden_size=4096,
    num_attention_heads=32,
    num_kv_heads=8,
    head_dim=128,
    intermediate_size=14336,
    vocab_size=128_256,
    weight_bytes_per_param=2.0,
    kv_bytes_per_element=2.0,
    activation_bytes_per_element=2.0,
)

QWEN_32B_FP8 = ModelConfig(
    name="qwen-32b-fp8",
    display_name="RedHatAI/DeepSeek-R1-Distill-Qwen-32B-FP8-dynamic",
    num_layers=64,
    hidden_size=5120,
    num_attention_heads=40,
    num_kv_heads=8,
    head_dim=128,
    intermediate_size=27648,
    vocab_size=152_064,
    weight_bytes_per_param=1.0,
    kv_bytes_per_element=2.0,
    activation_bytes_per_element=2.0,
)

LLAMA_3_3_70B_FP8 = ModelConfig(
    name="llama-3.3-70b-fp8",
    display_name="Infermatic/Llama-3.3-70B-Instruct-FP8-Dynamic",
    num_layers=80,
    hidden_size=8192,
    num_attention_heads=64,
    num_kv_heads=8,
    head_dim=128,
    intermediate_size=28672,
    vocab_size=128_256,
    weight_bytes_per_param=1.0,
    kv_bytes_per_element=1.0,
    activation_bytes_per_element=2.0,
)

MODEL_REGISTRY: dict[str, ModelConfig] = {
    model.name: model
    for model in (LLAMA_3_1_8B, QWEN_32B_FP8, LLAMA_3_3_70B_FP8)
}


def get_model(name: str) -> ModelConfig:
    """Look up a registered model by name.

    Raises:
        ConfigurationError: if the name is not registered.
    """
    try:
        return MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise ConfigurationError(f"unknown model {name!r}; known models: {known}") from None


def list_models() -> list[str]:
    """Return the registered model names in sorted order."""
    return sorted(MODEL_REGISTRY)
