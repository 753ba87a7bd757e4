"""Computation-graph IR and the virtual-layer grouping pass.

The paper implements hybrid prefilling "on top of the computation graph
compiled by torch.compile": consecutive linear (position-wise) operations are
grouped into one large virtual layer that is then evaluated chunk-by-chunk,
while attention nodes are left alone.  This module reproduces that pass on a
small explicit graph IR so that the planner logic — which operations may be
chunked, how they are grouped, what the output shapes of each group are — is
real code with real tests rather than prose.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.model.config import ModelConfig


class OpKind(enum.Enum):
    """Operation categories relevant to the hybrid-prefilling planner."""

    EMBEDDING = "embedding"
    LINEAR = "linear"
    NORM = "norm"
    ACTIVATION = "activation"
    ELEMENTWISE = "elementwise"
    ATTENTION = "attention"
    OUTPUT = "output"

    @property
    def is_positionwise(self) -> bool:
        """True if the op maps each token position independently."""
        return self is not OpKind.ATTENTION


@dataclass(frozen=True)
class GraphNode:
    """One operation in the compiled forward graph.

    Attributes:
        name: Unique node name, e.g. ``"block3.mlp.gate_up"``.
        kind: Operation category.
        inputs: Names of producer nodes.
        output_width: Per-token output width in elements (0 for scalar outputs).
        block_index: Transformer block this node belongs to (-1 for pre/post).
    """

    name: str
    kind: OpKind
    inputs: tuple[str, ...]
    output_width: int
    block_index: int = -1


@dataclass
class ComputationGraph:
    """A topologically ordered forward graph."""

    nodes: list[GraphNode] = field(default_factory=list)

    def add(self, node: GraphNode) -> GraphNode:
        if any(existing.name == node.name for existing in self.nodes):
            raise ConfigurationError(f"duplicate graph node name: {node.name!r}")
        known = {existing.name for existing in self.nodes}
        for dep in node.inputs:
            if dep not in known:
                raise ConfigurationError(
                    f"node {node.name!r} depends on unknown node {dep!r} "
                    "(graph must be built in topological order)"
                )
        self.nodes.append(node)
        return node

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    @property
    def attention_nodes(self) -> list[GraphNode]:
        return [node for node in self.nodes if node.kind is OpKind.ATTENTION]

    @property
    def positionwise_nodes(self) -> list[GraphNode]:
        return [node for node in self.nodes if node.kind.is_positionwise]


@dataclass(frozen=True)
class VirtualLayer:
    """A maximal run of consecutive position-wise nodes, evaluated chunk-by-chunk.

    Attributes:
        index: Position of the group in the rewritten graph.
        nodes: The grouped nodes, in execution order.
        output_width: Per-token width of the group's final output (used for
            output preallocation).
        peak_intermediate_width: Largest per-token tensor materialised while the
            group executes one chunk.
    """

    index: int
    nodes: tuple[GraphNode, ...]
    output_width: int
    peak_intermediate_width: int


def build_transformer_graph(model: ModelConfig, *, include_lm_head: bool = False) -> ComputationGraph:
    """Build the forward graph of a decoder-only transformer from its config.

    The graph mirrors the layer stack of :func:`repro.model.layers.build_layer_stack`
    but at operation granularity (separate q/k/v/o projections, separate MLP
    projections), which is the granularity torch.compile exposes and therefore
    the granularity the grouping pass works at.
    """
    graph = ComputationGraph()
    hidden = model.hidden_size
    graph.add(GraphNode("embedding", OpKind.EMBEDDING, (), hidden))
    previous = "embedding"

    for block in range(model.num_layers):
        prefix = f"block{block}"
        graph.add(GraphNode(f"{prefix}.input_norm", OpKind.NORM, (previous,), hidden, block))
        graph.add(GraphNode(
            f"{prefix}.attn.qkv", OpKind.LINEAR, (f"{prefix}.input_norm",),
            model.q_dim + 2 * model.kv_dim, block,
        ))
        graph.add(GraphNode(
            f"{prefix}.attn.core", OpKind.ATTENTION, (f"{prefix}.attn.qkv",), model.q_dim, block,
        ))
        graph.add(GraphNode(
            f"{prefix}.attn.out_proj", OpKind.LINEAR, (f"{prefix}.attn.core",), hidden, block,
        ))
        graph.add(GraphNode(
            f"{prefix}.attn.residual", OpKind.ELEMENTWISE,
            (previous, f"{prefix}.attn.out_proj"), hidden, block,
        ))
        graph.add(GraphNode(
            f"{prefix}.post_norm", OpKind.NORM, (f"{prefix}.attn.residual",), hidden, block,
        ))
        graph.add(GraphNode(
            f"{prefix}.mlp.gate_up", OpKind.LINEAR, (f"{prefix}.post_norm",),
            2 * model.intermediate_size, block,
        ))
        graph.add(GraphNode(
            f"{prefix}.mlp.act", OpKind.ACTIVATION, (f"{prefix}.mlp.gate_up",),
            model.intermediate_size, block,
        ))
        graph.add(GraphNode(
            f"{prefix}.mlp.down", OpKind.LINEAR, (f"{prefix}.mlp.act",), hidden, block,
        ))
        graph.add(GraphNode(
            f"{prefix}.mlp.residual", OpKind.ELEMENTWISE,
            (f"{prefix}.attn.residual", f"{prefix}.mlp.down"), hidden, block,
        ))
        previous = f"{prefix}.mlp.residual"

    graph.add(GraphNode("final_norm", OpKind.NORM, (previous,), hidden))
    if include_lm_head:
        graph.add(GraphNode("lm_head", OpKind.LINEAR, ("final_norm",), model.vocab_size))
    return graph


def group_chunkable_operations(graph: ComputationGraph) -> list[VirtualLayer | GraphNode]:
    """Rewrite a graph into alternating virtual layers and attention nodes.

    This is the torch.compile pass of the paper: every maximal run of
    consecutive position-wise operations becomes one :class:`VirtualLayer`
    (evaluated chunk-by-chunk by the executor), and every attention node is
    passed through unchanged (evaluated over the whole sequence).
    """
    plan: list[VirtualLayer | GraphNode] = []
    pending: list[GraphNode] = []
    group_index = 0

    def flush() -> None:
        nonlocal group_index, pending
        if not pending:
            return
        plan.append(VirtualLayer(
            index=group_index,
            nodes=tuple(pending),
            output_width=pending[-1].output_width,
            peak_intermediate_width=max(node.output_width for node in pending),
        ))
        group_index += 1
        pending = []

    for node in graph:
        if node.kind is OpKind.ATTENTION:
            flush()
            plan.append(node)
            group_index += 1
        else:
            pending.append(node)
    flush()
    return plan
