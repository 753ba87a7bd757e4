"""Per-layer structural description of a transformer forward pass.

The Figure 3 memory trace
(:meth:`repro.model.memory.MemoryModel.prefill_memory_trace`) needs to know,
for every layer in the model, whether the layer is an attention layer (must see
the whole sequence at once, produces KV cache) or a position-wise layer
(linear / norm / activation; can be evaluated chunk-by-chunk).  This module
builds that layer stack from a :class:`~repro.model.config.ModelConfig` and
also produces the MLP tensor-size report behind Figure 4 of the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.model.config import ModelConfig


class LayerKind(enum.Enum):
    """Whether a layer sees the whole sequence (attention) or one position at a time."""

    EMBEDDING = "embedding"
    NORM = "norm"
    ATTENTION = "attention"
    MLP = "mlp"
    LM_HEAD = "lm_head"

    @property
    def is_positionwise(self) -> bool:
        """True if the layer maps each token independently (chunkable)."""
        return self is not LayerKind.ATTENTION


@dataclass(frozen=True)
class LayerSpec:
    """One entry in the flattened layer stack of a transformer.

    Attributes:
        index: Position in the stack (0-based).
        kind: What kind of layer this is.
        block_index: Which transformer block the layer belongs to (-1 for
            embedding / final norm / LM head).
        input_width: Per-token input width in elements.
        output_width: Per-token output width in elements.
        peak_intermediate_width: Largest per-token intermediate tensor the layer
            materialises while computing (0 if the layer streams its output).
    """

    index: int
    kind: LayerKind
    block_index: int
    input_width: int
    output_width: int
    peak_intermediate_width: int = 0

    @property
    def is_chunkable(self) -> bool:
        """True if hybrid prefilling may evaluate this layer chunk-by-chunk."""
        return self.kind.is_positionwise


def build_layer_stack(model: ModelConfig, *, include_lm_head: bool = True) -> list[LayerSpec]:
    """Flatten a model into an ordered list of :class:`LayerSpec`.

    The stack is: embedding, then for each block (input norm, attention,
    post-attention norm, MLP), then the final norm and optionally the LM head.
    """
    stack: list[LayerSpec] = []
    index = 0

    def push(kind: LayerKind, block_index: int, input_width: int, output_width: int,
             peak_intermediate_width: int = 0) -> None:
        nonlocal index
        stack.append(
            LayerSpec(
                index=index,
                kind=kind,
                block_index=block_index,
                input_width=input_width,
                output_width=output_width,
                peak_intermediate_width=peak_intermediate_width,
            )
        )
        index += 1

    hidden = model.hidden_size
    push(LayerKind.EMBEDDING, -1, 1, hidden)

    for block in range(model.num_layers):
        push(LayerKind.NORM, block, hidden, hidden)
        # Attention materialises Q (q_dim), K and V (kv_dim each) plus the output.
        push(
            LayerKind.ATTENTION,
            block,
            hidden,
            hidden,
            peak_intermediate_width=model.q_dim + 2 * model.kv_dim,
        )
        push(LayerKind.NORM, block, hidden, hidden)
        # SwiGLU MLP materialises the fused gate+up tensor (2*intermediate) and
        # then the elementwise product (intermediate) before the down projection.
        push(
            LayerKind.MLP,
            block,
            hidden,
            hidden,
            peak_intermediate_width=model.mlp_intermediate_elements_per_token,
        )

    push(LayerKind.NORM, -1, hidden, hidden)
    if include_lm_head:
        push(LayerKind.LM_HEAD, -1, hidden, model.vocab_size)
    return stack


@dataclass(frozen=True)
class MLPTensorReport:
    """Figure 4 of the paper: per-token tensor sizes inside one MLP block.

    All sizes are in elements per token; ``*_vs_one_layer_kv`` expresses the
    paper's "14x larger than one-layer KV" comparison.
    """

    input_elements: int
    gate_up_elements: int
    down_input_elements: int
    output_elements: int
    one_layer_kv_elements: int
    gate_up_vs_one_layer_kv: float
    down_input_vs_one_layer_kv: float

    def rows(self, num_tokens: int, bytes_per_element: float) -> list[dict]:
        """Materialise the report for a concrete sequence length (for benches)."""
        def row(name: str, elements: int) -> dict:
            return {
                "tensor": name,
                "per_token_elements": elements,
                "total_elements": elements * num_tokens,
                "total_gib": elements * num_tokens * bytes_per_element / (1 << 30),
                "vs_one_layer_kv": elements / self.one_layer_kv_elements,
            }

        return [
            row("input", self.input_elements),
            row("intermediate_1 (gate+up)", self.gate_up_elements),
            row("intermediate_2 (after SwiGLU)", self.down_input_elements),
            row("output", self.output_elements),
        ]


def mlp_tensor_report(model: ModelConfig) -> MLPTensorReport:
    """Compute the per-token MLP tensor sizes of Figure 4 for ``model``."""
    one_layer_kv = 2 * model.kv_dim
    gate_up = 2 * model.intermediate_size
    return MLPTensorReport(
        input_elements=model.hidden_size,
        gate_up_elements=gate_up,
        down_input_elements=model.intermediate_size,
        output_elements=model.hidden_size,
        one_layer_kv_elements=one_layer_kv,
        gate_up_vs_one_layer_kv=gate_up / one_layer_kv,
        down_input_vs_one_layer_kv=model.intermediate_size / one_layer_kv,
    )
