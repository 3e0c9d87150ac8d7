"""Helpers that run a conv stack: hop plans, block routing, head merges.

The conv families are the ``Quant*Conv`` layers of
:mod:`repro.quant.qmodules`.  The FP32 model is a family built with an
empty assignment (:func:`repro.core.build.build_node_model`), so these
helpers serve the FP32, QAT, Degree-Quant and relaxed search models alike.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.graphs.graph import Graph
from repro.graphs.sampling import BlockBatch, SubgraphBlock
from repro.nn.module import Module
from repro.tensor.tensor import Tensor

#: What a layer propagates over: a full graph or one bipartite block.
GraphLike = Union[Graph, SubgraphBlock]


def hop_plan(convs) -> List[int]:
    """Propagation steps per layer: ``[conv.hops, ...]`` (1 for most layers).

    Multi-hop layers (TAG) consume several stacked blocks per layer, so
    samplers size their block stacks by :func:`total_hops`, not the layer
    count.
    """
    return [int(getattr(conv, "hops", 1)) for conv in convs]


def total_hops(convs) -> int:
    """Blocks a sampler must emit per batch for this conv stack."""
    return sum(hop_plan(convs))


def forward_blocks(classifier: Module, batch: BlockBatch,
                   x: Optional[Tensor] = None) -> Tensor:
    """Run a convolution-stack classifier over a sampled :class:`BlockBatch`.

    The classifier exposes ``convs`` / ``activation`` / ``dropout``.  The
    FP32, QAT, Degree-Quant and relaxed search models are one
    :class:`~repro.quant.qmodules.QuantNodeClassifier` with different
    quantizer factories, so minibatch execution is one code path for all.

    Blocks are assigned to layers by the model's hop plan: single-hop layers
    consume one block, multi-hop layers (TAG) a stack of ``conv.hops``
    consecutive blocks.
    """
    convs = classifier.convs
    plan = hop_plan(convs)
    if sum(plan) != batch.num_layers:
        raise ValueError(f"model needs {sum(plan)} blocks (per-layer hops "
                         f"{plan}) but the batch carries {batch.num_layers}; "
                         f"sampler fanouts must have one entry per hop")
    if x is None:
        x = Tensor(batch.x)
    num_layers = len(convs)

    def announce_block(conv, block):
        # Node-indexed quantizers (Degree-Quant) need the block's global ids
        # to align their per-node state with block-local rows.  Duck-typed to
        # keep gnn free of a dependency on the quant package.
        for module in conv.modules():
            if hasattr(module, "set_active_block"):
                module.set_active_block(block)

    cursor = 0
    for index, (conv, hops) in enumerate(zip(convs, plan)):
        blocks = batch.blocks[cursor:cursor + hops]
        cursor += hops
        announce_block(conv, blocks[0])
        try:
            x = conv(x, blocks[0] if hops == 1 else blocks)
        finally:
            announce_block(conv, None)
        if index < num_layers - 1:
            x = classifier.activation(x)
            x = classifier.dropout(x)
    return x


def head_merge_for_layer(index: int, num_layers: int, heads: int,
                         head_merge: str = "concat") -> str:
    """Merge mode of layer ``index`` in a ``num_layers`` attention stack.

    Hidden layers use ``head_merge`` (``concat`` by default, the GAT
    convention); the output layer averages its heads (``mean``) so the
    logits width never has to divide by the head count.  With a single head
    both merges are numerically identical, so ``concat`` is kept everywhere
    for exact backward compatibility.
    """
    if heads <= 1:
        return "concat"
    return "mean" if index == num_layers - 1 else head_merge
