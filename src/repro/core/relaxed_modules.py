"""Relaxed (searchable) GNN layers — the differentiable architecture of MixQ-GNN.

Every layer mirrors its fixed-bit-width counterpart in
:mod:`repro.quant.qmodules` but replaces each quantizer by a
:class:`~repro.core.relaxed_quantizer.RelaxedQuantizer` over the candidate
bit-widths.  Component names (``input``, ``weight``, ``linear_out``,
``adjacency``, ``aggregate_out``, ...) are identical in both families, so an
assignment exported from a relaxed model plugs straight into the quantized
model constructors.

The adjacency component needs special care: the sparse values are not part
of the autograd graph, so instead of mixing quantized *values*, each
candidate bit-width produces its own quantized adjacency and the layer mixes
the resulting *aggregation outputs* with the same softmax weights.  Task
gradients therefore reach the adjacency relaxation parameters as well.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.relaxed_quantizer import RelaxedQuantizer
from repro.gnn.attention import attention_edges, attention_head_dim
from repro.gnn.gat import head_scores, merge_heads
from repro.gnn.message_passing import GraphLike, MessagePassing
from repro.gnn.models import forward_blocks
from repro.gnn.sage import mean_adjacency
from repro.gnn.tag import TAGGraphLike, hop_views
from repro.graphs.batch import GraphBatch
from repro.graphs.graph import Graph
from repro.graphs.sampling import BlockBatch, SubgraphBlock, target_features
from repro.graphs.pooling import get_pooling
from repro.nn import init
from repro.nn.activations import Dropout, ReLU
from repro.nn.linear import Linear
from repro.nn.module import Module, ModuleList, Parameter
from repro.tensor import functional as F
from repro.quant.bitops import average_bits
from repro.quant.qmodules import (
    BitWidthAssignment,
    QuantizerFactory,
    default_quantizer_factory,
    set_active_block,
)
from repro.quant.quantizer import IdentityQuantizer
from repro.tensor.sparse import SparseTensor, spmm
from repro.tensor.tensor import Tensor


class _RelaxedAdjacency(Module):
    """Holds one quantized copy of an adjacency matrix per candidate bit-width.

    The cache keeps a reference to the source adjacency next to its quantized
    variants so an ``id()`` key can never be reused by a different adjacency
    after garbage collection (mini-batched graph classification creates a new
    adjacency per batch).
    """

    def __init__(self, relaxed_quantizer: RelaxedQuantizer):
        super().__init__()
        # The owning layer already registers this quantizer; registering it
        # here too would make every traversal (Equation 8's sum, the
        # optimizer's parameter list) see the adjacency component twice.
        object.__setattr__(self, "relaxed", relaxed_quantizer)
        self._cache: dict[int, tuple[SparseTensor, List[SparseTensor]]] = {}

    def aggregate(self, adjacency: SparseTensor, messages: Tensor) -> Tensor:
        key = id(adjacency)
        entry = self._cache.get(key)
        if entry is None or entry[0] is not adjacency:
            variants = []
            for quantizer in self.relaxed.quantizers:
                if isinstance(quantizer, IdentityQuantizer):
                    variants.append(adjacency)
                    continue
                integers, params = quantizer.quantize_array(adjacency.values)
                values = quantizer.dequantize_array(integers, params)
                variants.append(adjacency.with_values(values.astype(np.float32)))
            self._cache[key] = (adjacency, variants)
            if len(self._cache) > 8:
                self._cache.pop(next(iter(self._cache)))
        self.relaxed.last_numel = adjacency.nnz
        outputs = [spmm(variant, messages) for variant in self._cache[key][1]]
        return self.relaxed.mixture_terms(outputs)


class RelaxedLinear(Module):
    """Linear layer with relaxed weight and output quantizers."""

    def __init__(self, in_features: int, out_features: int, bit_choices: Sequence[int],
                 bias: bool = True,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.linear = Linear(in_features, out_features, bias=bias, rng=rng)
        self.weight_relaxed = RelaxedQuantizer(bit_choices, "weight", quantizer_factory,
                                               name="weight")
        self.output_relaxed = RelaxedQuantizer(bit_choices, "activation", quantizer_factory,
                                               name="output")

    def forward(self, x: Tensor) -> Tensor:
        weight = self.weight_relaxed(self.linear.weight)
        out = x.matmul(weight)
        if self.linear.bias is not None:
            out = out + self.linear.bias
        return self.output_relaxed(out)

    def export_bits(self, prefix: str) -> BitWidthAssignment:
        return {f"{prefix}.weight": self.weight_relaxed.selected_bits(),
                f"{prefix}.output": self.output_relaxed.selected_bits()}


class RelaxedGCNConv(MessagePassing):
    """Relaxed GCN convolution (components mirror :class:`QuantGCNConv`)."""

    def __init__(self, in_features: int, out_features: int, bit_choices: Sequence[int],
                 quantize_input: bool = False, quantize_output: bool = True,
                 bias: bool = True,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.quantize_input = quantize_input
        self.quantize_output = quantize_output
        self.linear = Linear(in_features, out_features, bias=bias, rng=rng)
        if quantize_input:
            self.input_relaxed: Optional[RelaxedQuantizer] = RelaxedQuantizer(
                bit_choices, "activation", quantizer_factory, name="input")
        else:
            self.input_relaxed = None
        self.weight_relaxed = RelaxedQuantizer(bit_choices, "weight", quantizer_factory,
                                               name="weight")
        self.linear_out_relaxed = RelaxedQuantizer(bit_choices, "activation",
                                                   quantizer_factory, name="linear_out")
        self.adjacency_relaxed = RelaxedQuantizer(bit_choices, "adjacency",
                                                  quantizer_factory, name="adjacency")
        if quantize_output:
            self.aggregate_out_relaxed: Optional[RelaxedQuantizer] = RelaxedQuantizer(
                bit_choices, "activation", quantizer_factory, name="aggregate_out")
        else:
            self.aggregate_out_relaxed = None
        self._relaxed_adjacency = _RelaxedAdjacency(self.adjacency_relaxed)

    def forward(self, x: Tensor, graph: Graph) -> Tensor:
        if self.input_relaxed is not None:
            x = self.input_relaxed(x)
        weight = self.weight_relaxed(self.linear.weight)
        transformed = x.matmul(weight)
        if self.linear.bias is not None:
            transformed = transformed + self.linear.bias
        transformed = self.linear_out_relaxed(transformed)
        aggregated = self._relaxed_adjacency.aggregate(
            graph.normalized_adjacency(), transformed)
        if self.aggregate_out_relaxed is not None:
            aggregated = self.aggregate_out_relaxed(aggregated)
        return aggregated

    def export_bits(self, prefix: str) -> BitWidthAssignment:
        assignment: BitWidthAssignment = {}
        if self.input_relaxed is not None:
            assignment[f"{prefix}.input"] = self.input_relaxed.selected_bits()
        assignment[f"{prefix}.weight"] = self.weight_relaxed.selected_bits()
        assignment[f"{prefix}.linear_out"] = self.linear_out_relaxed.selected_bits()
        assignment[f"{prefix}.adjacency"] = self.adjacency_relaxed.selected_bits()
        if self.aggregate_out_relaxed is not None:
            assignment[f"{prefix}.aggregate_out"] = self.aggregate_out_relaxed.selected_bits()
        return assignment


class RelaxedGINConv(MessagePassing):
    """Relaxed GIN convolution (components mirror :class:`QuantGINConv`)."""

    def __init__(self, in_features: int, out_features: int, bit_choices: Sequence[int],
                 quantize_input: bool = False, hidden_features: Optional[int] = None,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.quantize_input = quantize_input
        hidden = hidden_features if hidden_features is not None else out_features
        if quantize_input:
            self.input_relaxed: Optional[RelaxedQuantizer] = RelaxedQuantizer(
                bit_choices, "activation", quantizer_factory, name="input")
        else:
            self.input_relaxed = None
        self.adjacency_relaxed = RelaxedQuantizer(bit_choices, "adjacency",
                                                  quantizer_factory, name="adjacency")
        self.aggregate_out_relaxed = RelaxedQuantizer(bit_choices, "activation",
                                                      quantizer_factory,
                                                      name="aggregate_out")
        self.mlp_first = RelaxedLinear(in_features, hidden, bit_choices,
                                       quantizer_factory=quantizer_factory, rng=rng)
        self.mlp_second = RelaxedLinear(hidden, out_features, bit_choices,
                                        quantizer_factory=quantizer_factory, rng=rng)
        self.activation = ReLU()
        self.eps = 0.0
        self._relaxed_adjacency = _RelaxedAdjacency(self.adjacency_relaxed)

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        if self.input_relaxed is not None:
            x = self.input_relaxed(x)
        aggregated = self._relaxed_adjacency.aggregate(
            graph.adjacency(add_self_loops=False), x)
        combined = target_features(x, graph) * (1.0 + self.eps) + aggregated
        combined = self.aggregate_out_relaxed(combined)
        hidden = self.activation(self.mlp_first(combined))
        return self.mlp_second(hidden)

    def export_bits(self, prefix: str) -> BitWidthAssignment:
        assignment: BitWidthAssignment = {}
        if self.input_relaxed is not None:
            assignment[f"{prefix}.input"] = self.input_relaxed.selected_bits()
        assignment[f"{prefix}.adjacency"] = self.adjacency_relaxed.selected_bits()
        assignment[f"{prefix}.aggregate_out"] = self.aggregate_out_relaxed.selected_bits()
        first = self.mlp_first.export_bits(f"{prefix}.mlp0")
        second = self.mlp_second.export_bits(f"{prefix}.mlp1")
        # Map the nested linear components onto the QuantGINConv naming scheme.
        assignment[f"{prefix}.weight_0"] = first[f"{prefix}.mlp0.weight"]
        assignment[f"{prefix}.weight_1"] = second[f"{prefix}.mlp1.weight"]
        assignment[f"{prefix}.output"] = second[f"{prefix}.mlp1.output"]
        return assignment


class RelaxedSAGEConv(MessagePassing):
    """Relaxed GraphSAGE convolution (components mirror :class:`QuantSAGEConv`)."""

    def __init__(self, in_features: int, out_features: int, bit_choices: Sequence[int],
                 quantize_input: bool = False,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.quantize_input = quantize_input
        if quantize_input:
            self.input_relaxed: Optional[RelaxedQuantizer] = RelaxedQuantizer(
                bit_choices, "activation", quantizer_factory, name="input")
        else:
            self.input_relaxed = None
        self.adjacency_relaxed = RelaxedQuantizer(bit_choices, "adjacency",
                                                  quantizer_factory, name="adjacency")
        self.aggregate_out_relaxed = RelaxedQuantizer(bit_choices, "activation",
                                                      quantizer_factory,
                                                      name="aggregate_out")
        self.linear_root = Linear(in_features, out_features, bias=True, rng=rng)
        self.linear_neighbour = Linear(in_features, out_features, bias=False, rng=rng)
        self.weight_root_relaxed = RelaxedQuantizer(bit_choices, "weight",
                                                    quantizer_factory, name="weight_root")
        self.weight_neighbour_relaxed = RelaxedQuantizer(bit_choices, "weight",
                                                         quantizer_factory,
                                                         name="weight_neighbour")
        self.output_relaxed = RelaxedQuantizer(bit_choices, "activation",
                                               quantizer_factory, name="output")
        self._relaxed_adjacency = _RelaxedAdjacency(self.adjacency_relaxed)

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        if self.input_relaxed is not None:
            x = self.input_relaxed(x)
        aggregated = self.aggregate_out_relaxed(
            self._relaxed_adjacency.aggregate(mean_adjacency(graph), x))
        weight_root = self.weight_root_relaxed(self.linear_root.weight)
        weight_neighbour = self.weight_neighbour_relaxed(self.linear_neighbour.weight)
        out = target_features(x, graph).matmul(weight_root) + self.linear_root.bias \
            + aggregated.matmul(weight_neighbour)
        return self.output_relaxed(out)

    def export_bits(self, prefix: str) -> BitWidthAssignment:
        assignment: BitWidthAssignment = {}
        if self.input_relaxed is not None:
            assignment[f"{prefix}.input"] = self.input_relaxed.selected_bits()
        assignment[f"{prefix}.adjacency"] = self.adjacency_relaxed.selected_bits()
        assignment[f"{prefix}.aggregate_out"] = self.aggregate_out_relaxed.selected_bits()
        assignment[f"{prefix}.weight_root"] = self.weight_root_relaxed.selected_bits()
        assignment[f"{prefix}.weight_neighbour"] = self.weight_neighbour_relaxed.selected_bits()
        assignment[f"{prefix}.output"] = self.output_relaxed.selected_bits()
        return assignment


class RelaxedGATConv(MessagePassing):
    """Relaxed multi-head GAT convolution (components mirror :class:`QuantGATConv`).

    The attention coefficients live in the autograd graph (unlike sparse
    adjacency values), so the ``attention`` component is a plain relaxed
    quantizer applied to the post-softmax tensor — task gradients reach its
    relaxation parameters directly.  Heads add score columns, never
    components, so a multi-head search exports the same assignment format.
    """

    def __init__(self, in_features: int, out_features: int, bit_choices: Sequence[int],
                 quantize_input: bool = False, negative_slope: float = 0.2,
                 heads: int = 1, head_merge: str = "concat",
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.quantize_input = quantize_input
        self.negative_slope = negative_slope
        self.heads = int(heads)
        self.head_merge = head_merge
        self.head_dim = attention_head_dim(out_features, self.heads, head_merge)
        width = self.heads * self.head_dim
        self.linear = Linear(in_features, width, bias=False, rng=rng)
        self.attention_src = Parameter(init.glorot_uniform((self.head_dim, self.heads),
                                                           rng=rng),
                                       name="attention_src")
        self.attention_dst = Parameter(init.glorot_uniform((self.head_dim, self.heads),
                                                           rng=rng),
                                       name="attention_dst")
        self.bias = Parameter(init.zeros((out_features,)), name="bias")
        if quantize_input:
            self.input_relaxed: Optional[RelaxedQuantizer] = RelaxedQuantizer(
                bit_choices, "activation", quantizer_factory, name="input")
        else:
            self.input_relaxed = None
        self.weight_relaxed = RelaxedQuantizer(bit_choices, "weight", quantizer_factory,
                                               name="weight")
        self.linear_out_relaxed = RelaxedQuantizer(bit_choices, "activation",
                                                   quantizer_factory, name="linear_out")
        self.attention_relaxed = RelaxedQuantizer(bit_choices, "adjacency",
                                                  quantizer_factory, name="attention")
        self.aggregate_out_relaxed = RelaxedQuantizer(bit_choices, "activation",
                                                      quantizer_factory,
                                                      name="aggregate_out")

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        if self.input_relaxed is not None:
            x = self.input_relaxed(x)
        weight = self.weight_relaxed(self.linear.weight)
        transformed = self.linear_out_relaxed(x.matmul(weight))
        edges = attention_edges(graph)
        score_src = head_scores(transformed, self.attention_src,
                                self.heads, self.head_dim)
        score_dst = head_scores(transformed, self.attention_dst,
                                self.heads, self.head_dim)
        edge_scores = F.leaky_relu(score_src[edges.src] + score_dst[edges.dst],
                                   negative_slope=self.negative_slope)
        attention = F.scatter_softmax(edge_scores, edges.dst, edges.num_dst)
        attention = self.attention_relaxed(attention)
        per_head = transformed.reshape(-1, self.heads, self.head_dim)
        messages = per_head[edges.src] * attention.reshape(-1, self.heads, 1)
        aggregated = F.segment_sum(messages, edges.dst, edges.num_dst)
        merged = merge_heads(aggregated, self.heads, self.head_dim,
                             self.head_merge)
        return self.aggregate_out_relaxed(merged + self.bias)

    def export_bits(self, prefix: str) -> BitWidthAssignment:
        assignment: BitWidthAssignment = {}
        if self.input_relaxed is not None:
            assignment[f"{prefix}.input"] = self.input_relaxed.selected_bits()
        assignment[f"{prefix}.weight"] = self.weight_relaxed.selected_bits()
        assignment[f"{prefix}.linear_out"] = self.linear_out_relaxed.selected_bits()
        assignment[f"{prefix}.attention"] = self.attention_relaxed.selected_bits()
        assignment[f"{prefix}.aggregate_out"] = self.aggregate_out_relaxed.selected_bits()
        return assignment


class RelaxedTransformerConv(MessagePassing):
    """Relaxed multi-head Transformer convolution (mirrors
    :class:`QuantTransformerConv`)."""

    def __init__(self, in_features: int, out_features: int, bit_choices: Sequence[int],
                 quantize_input: bool = False, heads: int = 1,
                 head_merge: str = "concat",
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.quantize_input = quantize_input
        self.heads = int(heads)
        self.head_merge = head_merge
        self.head_dim = attention_head_dim(out_features, self.heads, head_merge)
        width = self.heads * self.head_dim
        self.query = Linear(in_features, width, bias=False, rng=rng)
        self.key = Linear(in_features, width, bias=False, rng=rng)
        self.value = Linear(in_features, width, bias=True, rng=rng)
        if quantize_input:
            self.input_relaxed: Optional[RelaxedQuantizer] = RelaxedQuantizer(
                bit_choices, "activation", quantizer_factory, name="input")
        else:
            self.input_relaxed = None
        self.weight_query_relaxed = RelaxedQuantizer(bit_choices, "weight",
                                                     quantizer_factory,
                                                     name="weight_query")
        self.weight_key_relaxed = RelaxedQuantizer(bit_choices, "weight",
                                                   quantizer_factory, name="weight_key")
        self.weight_value_relaxed = RelaxedQuantizer(bit_choices, "weight",
                                                     quantizer_factory,
                                                     name="weight_value")
        self.value_out_relaxed = RelaxedQuantizer(bit_choices, "activation",
                                                  quantizer_factory, name="value_out")
        self.attention_relaxed = RelaxedQuantizer(bit_choices, "adjacency",
                                                  quantizer_factory, name="attention")
        self.aggregate_out_relaxed = RelaxedQuantizer(bit_choices, "activation",
                                                      quantizer_factory,
                                                      name="aggregate_out")

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        if self.input_relaxed is not None:
            x = self.input_relaxed(x)
        queries = x.matmul(self.weight_query_relaxed(self.query.weight))
        keys = x.matmul(self.weight_key_relaxed(self.key.weight))
        values = x.matmul(self.weight_value_relaxed(self.value.weight)) \
            + self.value.bias
        values = self.value_out_relaxed(values)
        edges = attention_edges(graph)
        queries = queries.reshape(-1, self.heads, self.head_dim)
        keys = keys.reshape(-1, self.heads, self.head_dim)
        values = values.reshape(-1, self.heads, self.head_dim)
        scale = 1.0 / np.sqrt(self.head_dim)
        edge_scores = (queries[edges.dst] * keys[edges.src]).sum(axis=-1) * scale
        attention = F.scatter_softmax(edge_scores, edges.dst, edges.num_dst)
        attention = self.attention_relaxed(attention)
        messages = values[edges.src] * attention.reshape(-1, self.heads, 1)
        aggregated = F.segment_sum(messages, edges.dst, edges.num_dst)
        merged = merge_heads(aggregated, self.heads, self.head_dim,
                             self.head_merge)
        return self.aggregate_out_relaxed(merged)

    def export_bits(self, prefix: str) -> BitWidthAssignment:
        assignment: BitWidthAssignment = {}
        if self.input_relaxed is not None:
            assignment[f"{prefix}.input"] = self.input_relaxed.selected_bits()
        assignment[f"{prefix}.weight_query"] = self.weight_query_relaxed.selected_bits()
        assignment[f"{prefix}.weight_key"] = self.weight_key_relaxed.selected_bits()
        assignment[f"{prefix}.weight_value"] = self.weight_value_relaxed.selected_bits()
        assignment[f"{prefix}.value_out"] = self.value_out_relaxed.selected_bits()
        assignment[f"{prefix}.attention"] = self.attention_relaxed.selected_bits()
        assignment[f"{prefix}.aggregate_out"] = self.aggregate_out_relaxed.selected_bits()
        return assignment


class RelaxedTAGConv(MessagePassing):
    """Relaxed TAG convolution (components mirror :class:`QuantTAGConv`).

    One relaxed weight quantizer per adjacency power; the sparse adjacency
    mixes aggregation *outputs* through :class:`_RelaxedAdjacency` (shared
    across hops), and every propagated tensor passes the shared ``hop_out``
    relaxation.  Consumes ``hops`` stacked blocks per layer in minibatch
    mode, exactly like the float :class:`~repro.gnn.tag.TAGConv`.
    """

    def __init__(self, in_features: int, out_features: int, bit_choices: Sequence[int],
                 quantize_input: bool = False, hops: int = 3,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if hops < 1:
            raise ValueError("RelaxedTAGConv needs at least one hop")
        self.in_features = in_features
        self.out_features = out_features
        self.quantize_input = quantize_input
        self.hops = hops
        self.linears = ModuleList(
            [Linear(in_features, out_features, bias=(k == 0), rng=rng)
             for k in range(hops + 1)])
        if quantize_input:
            self.input_relaxed: Optional[RelaxedQuantizer] = RelaxedQuantizer(
                bit_choices, "activation", quantizer_factory, name="input")
        else:
            self.input_relaxed = None
        self.adjacency_relaxed = RelaxedQuantizer(bit_choices, "adjacency",
                                                  quantizer_factory, name="adjacency")
        self.hop_out_relaxed = RelaxedQuantizer(bit_choices, "activation",
                                                quantizer_factory, name="hop_out")
        self.weight_relaxeds = ModuleList(
            [RelaxedQuantizer(bit_choices, "weight", quantizer_factory,
                              name=f"weight_{k}") for k in range(hops + 1)])
        self.output_relaxed = RelaxedQuantizer(bit_choices, "activation",
                                               quantizer_factory, name="output")
        self._relaxed_adjacency = _RelaxedAdjacency(self.adjacency_relaxed)

    def forward(self, x: Tensor, graph: TAGGraphLike) -> Tensor:
        if self.input_relaxed is not None:
            x = self.input_relaxed(x)
        views = hop_views(graph, self.hops)
        last = views[-1]
        num_final = last.num_dst if isinstance(last, SubgraphBlock) else None

        def final_rows(tensor: Tensor) -> Tensor:
            return tensor if num_final is None else tensor[:num_final]

        weight = self.weight_relaxeds[0](self.linears[0].weight)
        output = final_rows(x).matmul(weight) + self.linears[0].bias
        propagated = x
        for hop, view in enumerate(views, start=1):
            propagated = self._relaxed_adjacency.aggregate(
                view.normalized_adjacency(), propagated)
            if isinstance(view, SubgraphBlock):
                # Hop outputs are row-indexed by this hop's target side, not
                # by the layer's input block (the one forward_blocks set).
                set_active_block(self.hop_out_relaxed, view)
            propagated = self.hop_out_relaxed(propagated)
            weight = self.weight_relaxeds[hop](self.linears[hop].weight)
            output = output + final_rows(propagated).matmul(weight)
        if num_final is not None:
            set_active_block(self.output_relaxed, views[-1])
        return self.output_relaxed(output)

    def export_bits(self, prefix: str) -> BitWidthAssignment:
        assignment: BitWidthAssignment = {}
        if self.input_relaxed is not None:
            assignment[f"{prefix}.input"] = self.input_relaxed.selected_bits()
        assignment[f"{prefix}.adjacency"] = self.adjacency_relaxed.selected_bits()
        assignment[f"{prefix}.hop_out"] = self.hop_out_relaxed.selected_bits()
        for k, relaxed in enumerate(self.weight_relaxeds):
            assignment[f"{prefix}.weight_{k}"] = relaxed.selected_bits()
        assignment[f"{prefix}.output"] = self.output_relaxed.selected_bits()
        return assignment


class RelaxedNodeClassifier(Module):
    """Relaxed node classifier — the searchable architecture of Algorithm 1."""

    def __init__(self, convs: List[MessagePassing], dropout: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.convs = ModuleList(convs)
        self.activation = ReLU()
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, graph, x: Optional[Tensor] = None) -> Tensor:
        if isinstance(graph, BlockBatch):
            return forward_blocks(self, graph, x)
        if x is None:
            x = Tensor(graph.x)
        num_layers = len(self.convs)
        for index, conv in enumerate(self.convs):
            x = conv(x, graph)
            if index < num_layers - 1:
                x = self.activation(x)
                x = self.dropout(x)
        return x

    def export_assignment(self) -> BitWidthAssignment:
        """Arg-max bit-width per component (the sequence ``S`` of Algorithm 1)."""
        assignment: BitWidthAssignment = {}
        for index, conv in enumerate(self.convs):
            assignment.update(conv.export_bits(f"conv{index}"))
        return assignment

    def selected_average_bits(self) -> float:
        return average_bits(self.export_assignment().values())


class RelaxedGraphClassifier(Module):
    """Relaxed GIN graph classifier (searchable counterpart of Table 8's model)."""

    def __init__(self, in_features: int, hidden_features: int, num_classes: int,
                 bit_choices: Sequence[int], num_layers: int = 5,
                 pooling: str = "max", dropout: float = 0.5,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        convs: List[MessagePassing] = []
        for index in range(num_layers):
            fan_in = in_features if index == 0 else hidden_features
            convs.append(RelaxedGINConv(fan_in, hidden_features, bit_choices,
                                        quantize_input=(index == 0),
                                        quantizer_factory=quantizer_factory, rng=rng))
        self.convs = ModuleList(convs)
        self.pooling_name = pooling
        self._pool = get_pooling(pooling)
        self.head_hidden = RelaxedLinear(hidden_features, hidden_features, bit_choices,
                                         quantizer_factory=quantizer_factory, rng=rng)
        self.head_out = RelaxedLinear(hidden_features, num_classes, bit_choices,
                                      quantizer_factory=quantizer_factory, rng=rng)
        self.activation = ReLU()
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, batch: GraphBatch, x: Optional[Tensor] = None) -> Tensor:
        if x is None:
            x = Tensor(batch.x)
        for conv in self.convs:
            x = conv(x, batch)
            x = self.activation(x)
        pooled = self._pool(x, batch.batch, batch.num_graphs)
        hidden = self.activation(self.head_hidden(pooled))
        hidden = self.dropout(hidden)
        return self.head_out(hidden)

    def export_assignment(self) -> BitWidthAssignment:
        assignment: BitWidthAssignment = {}
        for index, conv in enumerate(self.convs):
            assignment.update(conv.export_bits(f"conv{index}"))
        assignment.update(self.head_hidden.export_bits("head0"))
        assignment.update(self.head_out.export_bits("head1"))
        return assignment

    def selected_average_bits(self) -> float:
        return average_bits(self.export_assignment().values())
