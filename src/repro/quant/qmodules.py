"""Fixed-bit-width quantized GNN modules (quantization-aware training).

Each quantized layer owns one quantizer per *component* in the sense of the
paper: inputs, learnable parameters, the outputs of the message function,
the adjacency values, and the outputs of the aggregation.  Component
bit-widths are supplied as a flat assignment dictionary, e.g.::

    {"conv0.input": 8, "conv0.weight": 4, "conv0.linear_out": 4,
     "conv0.adjacency": 8, "conv0.aggregate_out": 8,
     "conv1.weight": 2, ...}

which is exactly the format produced by the MixQ-GNN bit-width search
(:mod:`repro.core.selection`), so a search result can be instantiated as a
quantized architecture directly.

A ``quantizer_factory`` hook decides which quantizer sits at each named
quantization point: the default puts a fixed-bit :class:`AffineQuantizer`
there (QAT), the Degree-Quant factory
(:func:`repro.quant.degree_quant.degree_quant_factory`) reproduces the
paper's "MixQ + DQ" integration, and the mixture factory of
:mod:`repro.core.relaxed_quantizer` turns the very same layers into the
relaxed (searchable) architecture of Algorithm 1 — there is no second
module family for the search.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.gnn.attention import attention_edges, attention_head_dim
from repro.gnn.gat import head_scores, merge_heads
from repro.gnn.models import GraphLike, forward_blocks, head_merge_for_layer
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
from repro.quant.bitops import (
    FP32_BITS,
    BitOpsCounter,
    average_bits,
    conv_bit_operations,
)
from repro.quant.quantizer import AffineQuantizer, IdentityQuantizer
from repro.tensor import functional as F
from repro.tensor.sparse import SparseTensor, spmm
from repro.tensor.tensor import Tensor

#: Signature of a quantizer factory: ``factory(bits, kind)`` with ``kind`` one
#: of ``"activation"``, ``"weight"`` or ``"adjacency"``.
QuantizerFactory = Callable[[int, str], Module]

ComponentBits = Dict[str, int]
BitWidthAssignment = Dict[str, int]


def default_quantizer_factory(bits: int, kind: str) -> Module:
    """Native QAT quantizers: affine for activations, symmetric for the rest."""
    if bits >= FP32_BITS:
        return IdentityQuantizer()
    if kind == "activation":
        return AffineQuantizer(bits=bits, signed=True, symmetric=False, observer="ema")
    if kind == "weight":
        return AffineQuantizer(bits=bits, signed=True, symmetric=True, observer="minmax")
    if kind == "adjacency":
        return AffineQuantizer(bits=bits, signed=True, symmetric=True, observer="minmax")
    raise ValueError(f"unknown quantizer kind {kind!r}")


def _bits_of(quantizer: Module) -> int:
    return int(getattr(quantizer, "bits", FP32_BITS))


def set_active_block(module: Module, block) -> None:
    """Align node-indexed quantizers (Degree-Quant) inside ``module`` with a
    block's global node ids (duck-typed; ``None`` clears).

    Multi-hop layers call this per hop: the per-layer announcement made by
    :func:`~repro.gnn.models.forward_blocks` aligns only the layer's *input*
    block, while a TAG layer's hop outputs are row-indexed by each hop
    view's target side.
    """
    for sub in module.modules():
        if hasattr(sub, "set_active_block"):
            sub.set_active_block(block)


class _AdjacencyQuantization:
    """Aggregates messages over the fake-quantized adjacency of one layer.

    Sparse adjacency values are not part of the autograd graph, so they are
    fake-quantized once per adjacency object and cached.  A mixture
    quantizer (duck-typed: it exposes ``mixture_terms`` and its candidate
    ``quantizers``) cannot blend quantized *values* for the same reason:
    each candidate gets its own quantized adjacency and the per-candidate
    aggregation *outputs* are blended with the mixture weights, which is how
    task gradients reach the adjacency relaxation parameters.

    A plain object, not a :class:`Module`: the owning layer registers the
    quantizer, and registering it here again would make every traversal
    (the penalty sum, the optimizer's parameter list) see it twice.  The
    cache stores the source adjacency next to its quantized copies: the
    stored reference keeps the source alive, so an ``id()`` key can never be
    silently reused by a different (garbage-collected-and-reallocated)
    adjacency of another graph.
    """

    def __init__(self, quantizer: Module):
        self.quantizer = quantizer
        self._is_mixture = hasattr(quantizer, "mixture_terms")
        self._cache: dict[int, tuple[SparseTensor, List[SparseTensor]]] = {}

    def _quantized(self, adjacency: SparseTensor) -> List[SparseTensor]:
        """One fake-quantized copy of ``adjacency`` per candidate quantizer."""
        key = id(adjacency)
        entry = self._cache.get(key)
        if entry is None or entry[0] is not adjacency:
            candidates = self.quantizer.quantizers if self._is_mixture \
                else [self.quantizer]
            copies = []
            for quantizer in candidates:
                if isinstance(quantizer, IdentityQuantizer):
                    copies.append(adjacency)
                    continue
                integers, params = quantizer.quantize_array(adjacency.values)
                values = quantizer.dequantize_array(integers, params)
                copies.append(adjacency.with_values(values.astype(np.float32)))
            entry = self._cache[key] = (adjacency, copies)
            if len(self._cache) > 8:
                self._cache.pop(next(iter(self._cache)))
        return entry[1]

    def aggregate(self, adjacency: SparseTensor, messages: Tensor) -> Tensor:
        copies = self._quantized(adjacency)
        if not self._is_mixture:
            return spmm(copies[0], messages)
        self.quantizer.last_numel = adjacency.nnz  # the penalty's C(T) size
        return self.quantizer.mixture_terms([spmm(copy, messages) for copy in copies])


class QuantLinear(Module):
    """Linear layer with fake-quantized weight and (optionally) output."""

    def __init__(self, in_features: int, out_features: int,
                 weight_bits: int = 8, output_bits: int = 8, bias: bool = True,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.linear = Linear(in_features, out_features, bias=bias, rng=rng)
        self.weight_quantizer = quantizer_factory(weight_bits, "weight")
        self.output_quantizer = quantizer_factory(output_bits, "activation")

    def forward(self, x: Tensor) -> Tensor:
        weight = self.weight_quantizer(self.linear.weight)
        out = x.matmul(weight)
        if self.linear.bias is not None:
            out = out + self.linear.bias
        return self.output_quantizer(out)

    def component_bits(self, prefix: str) -> ComponentBits:
        return {f"{prefix}.weight": _bits_of(self.weight_quantizer),
                f"{prefix}.output": _bits_of(self.output_quantizer)}

    def bit_operations(self, num_rows: int, incoming_bits: int,
                       prefix: str) -> tuple[BitOpsCounter, int]:
        counter = BitOpsCounter()
        bits = max(incoming_bits, _bits_of(self.weight_quantizer))
        counter.add(f"{prefix}.matmul", self.linear.operation_count(num_rows), bits)
        return counter, _bits_of(self.output_quantizer)


class QuantPoint(NamedTuple):
    """One named quantization point of a conv family.

    The quantizer lives at ``<component>_quantizer`` and takes its
    bit-width from the assignment entry ``<prefix>.<component>``.  ``slot``
    is the artifact slot its trained parameters are exported under (``None``
    for weight quantizers, which travel inside their weight plan).
    ``shares`` marks a point with no component of its own: it is built from
    that component's bit-width and never reported.  GIN's first-MLP output
    ``mlp0_out`` follows ``aggregate_out``, because the paper's GIN
    component set has no MLP-internal activation.
    """

    component: str
    kind: str
    slot: Optional[str] = None
    shares: Optional[str] = None


class WeightSpec(NamedTuple):
    """One exported matrix of a conv family.

    ``holder`` is the (dotted) attribute holding it — a :class:`Linear`, or
    a bare parameter for the FP32 attention vectors; ``component`` the
    weight component quantizing it (``None``: exported in FP32); ``bias`` an
    attribute overriding the holder's own bias (GAT applies its bias after
    the aggregation, so it is not the transform's).
    """

    slot: str
    holder: str
    component: Optional[str] = None
    bias: Optional[str] = None


def _expand(rows, hops: int):
    """Instantiate ``{k}`` rows once per adjacency power ``0..hops`` (TAG)."""
    for row in rows:
        if "{k}" not in row[0]:
            yield row
            continue
        for k in range(hops + 1):
            yield type(row)(*(field.format(k=k) if isinstance(field, str) else field
                              for field in row))


class QuantConv(Module):
    """Base of the conv families: one declarative table and one body each.

    A family declares its quantization points (:attr:`POINTS`), its exported
    matrices (:attr:`WEIGHTS`) and the aggregation :meth:`operator` it
    applies.  Everything else that depends on the family's structure reads
    this table: the ``*_quantizer`` attributes, ``component_bits``,
    :func:`conv_component_names`, the artifact export and its slot tables,
    the serving session's operator, and the BitOPs of the layer.  Under the
    default factory a component missing from the assignment is an
    :class:`IdentityQuantizer`, so a family built from an empty assignment
    is its FP32 layer.

    What remains per family is its :meth:`body`: the layer arithmetic,
    written once against an executor ``ex`` and one graph view per hop.
    The ops are

    * ``ex.point(component, x, rows=None)`` — the quantization point
      ``component``; ``rows`` is the view whose target side indexes ``x``;
    * ``ex.linear(slot, x, out=None, bias=True)`` — ``x`` times the matrix
      ``slot`` plus its bias, then the point ``out``;
    * ``ex.operator(view)`` and ``ex.aggregate(operator, x)`` — the family's
      aggregation operator and its product with ``x``;
    * ``ex.score(x, edges)`` — GAT's additive edge scores, leaky-ReLU'd;
    * ``ex.attend(scores, edges, values)`` — the per-target softmax, the
      ``attention`` point and the per-head weighted sums ``(N, H, D)``;
    * ``ex.merge(aggregated, bias_of=None)`` — the head merge, plus the bias
      of the matrix ``bias_of``;
    * ``ex.relu(x)``;

    and ``ex.layer`` carries the layer's scalars (``heads``, ``head_dim``,
    ``eps`` …).  Plain array arithmetic stays in the body.
    :class:`TrainingExecutor` runs a body with autograd and fake
    quantization (QAT, the search, the FP32 model);
    :class:`~repro.serving.session.IntegerExecutor` runs the same body on
    an artifact's integer grids.
    """

    POINTS: Tuple[QuantPoint, ...] = ()
    WEIGHTS: Tuple[WeightSpec, ...] = ()

    #: Family key of :data:`CONV_CLASSES`.
    conv_type: Optional[str] = None

    #: Propagation steps one layer consumes.  TAG overrides it per instance;
    #: samplers emit one block per hop, so a model needs ``sum(conv.hops)``
    #: blocks (:func:`~repro.gnn.models.hop_plan`).
    hops = 1

    #: Layer-plan scalars; families that have them override per instance.
    #: ``eps`` is never overridden: GIN is GIN-0.
    eps = 0.0
    negative_slope = 0.2
    heads = 1
    head_merge = "concat"

    @staticmethod
    def operator(graph: GraphLike):
        """The aggregation operator this family applies to a graph view."""
        raise NotImplementedError

    @staticmethod
    def body(ex, x, views):
        """The layer arithmetic over ``views`` (one graph view per hop)."""
        raise NotImplementedError

    def forward(self, x: Tensor, graph: TAGGraphLike) -> Tensor:
        return self.body(TrainingExecutor(self), x, hop_views(graph, self.hops))

    @classmethod
    def points(cls, hops: int = 3) -> List[QuantPoint]:
        return list(_expand(cls.POINTS, hops))

    @classmethod
    def weights(cls, hops: int = 3) -> List[WeightSpec]:
        return list(_expand(cls.WEIGHTS, hops))

    @classmethod
    def components(cls, hops: int = 3) -> Tuple[str, ...]:
        """The family's named components (``input`` first)."""
        return tuple(point.component for point in cls.points(hops)
                     if point.shares is None)

    def _build_quantizers(self, bits: ComponentBits, quantize_input: bool,
                          quantizer_factory: QuantizerFactory) -> None:
        """Create ``<component>_quantizer`` for every point, in table order."""
        self.quantize_input = quantize_input
        self._slot_components: Dict[str, Optional[str]] = {
            spec.slot: spec.component for spec in self.weights(self.hops)}
        for point in self.points(self.hops):
            if point.component == "input" and not quantize_input:
                quantizer: Module = IdentityQuantizer()
            else:
                width = int(bits.get(point.shares or point.component, FP32_BITS))
                quantizer = quantizer_factory(width, point.kind)
            setattr(self, f"{point.component}_quantizer", quantizer)
            if point.slot is not None:
                self._slot_components[point.slot] = point.component
        if "adjacency" in self._slot_components:
            self._adjacency = _AdjacencyQuantization(self.adjacency_quantizer)

    def quantizer(self, component: str) -> Module:
        return getattr(self, f"{component}_quantizer")

    def component_bits(self, prefix: str) -> ComponentBits:
        return {f"{prefix}.{component}": _bits_of(self.quantizer(component))
                for component in self.components(self.hops)
                if component != "input" or self.quantize_input}

    @classmethod
    def point_slot(cls, component: str) -> Optional[str]:
        """The artifact slot the quantization point ``component`` exports to."""
        return next(point.slot for point in cls.POINTS
                    if point.component == component)

    def weight_spec(self, slot: str) -> WeightSpec:
        return next(spec for spec in self.weights(self.hops) if spec.slot == slot)

    def holder(self, spec: WeightSpec):
        return functools.reduce(getattr, spec.holder.split("."), self)

    def weight_entries(self):
        """``(slot, weight, weight quantizer or None, bias or None)`` per matrix."""
        for spec in self.weights(self.hops):
            holder = self.holder(spec)
            weight, bias = (holder.weight, holder.bias) \
                if isinstance(holder, Linear) else (holder, None)
            if spec.bias is not None:
                bias = getattr(self, spec.bias)
            yield (spec.slot, weight,
                   self.quantizer(spec.component) if spec.component else None, bias)

    def slot_bits(self, slot: str) -> int:
        """Bit-width of an artifact slot (a quantization point or a matrix)."""
        component = self._slot_components[slot]
        return FP32_BITS if component is None else _bits_of(self.quantizer(component))

    @property
    def has_bias(self) -> bool:
        return any(bias is not None for *_, bias in self.weight_entries())

    def bit_operations(self, graph: Graph, incoming_bits: int,
                       prefix: str) -> tuple[BitOpsCounter, int]:
        return conv_bit_operations(
            self, prefix, self.slot_bits, graph.num_nodes, graph.num_nodes,
            [self.operator(graph).nnz] * self.hops, incoming_bits)


class TrainingExecutor:
    """Runs a family body with autograd and fake quantization.

    Points are the layer's quantizer modules and matrices its parameters.
    Aggregation goes through the layer's :class:`_AdjacencyQuantization`, so
    a mixture quantizer blends its per-candidate outputs.  A point given
    ``rows`` first aligns node-indexed quantizers (Degree-Quant) with that
    block: a TAG layer's hop outputs are row-indexed by each hop view's
    target side, not by the input block
    :func:`~repro.gnn.models.forward_blocks` announced.
    """

    def __init__(self, conv: QuantConv):
        self.layer = conv

    def operator(self, view):
        return self.layer.operator(view)

    def point(self, component: str, x: Tensor, rows=None) -> Tensor:
        quantizer = self.layer.quantizer(component)
        if isinstance(rows, SubgraphBlock):
            set_active_block(quantizer, rows)
        return quantizer(x)

    def linear(self, slot: str, x: Tensor, out: Optional[str] = None,
               bias: bool = True) -> Tensor:
        spec = self.layer.weight_spec(slot)
        holder = self.layer.holder(spec)
        y = x.matmul(self.layer.quantizer(spec.component)(holder.weight))
        if bias and holder.bias is not None:
            y = y + holder.bias
        return y if out is None else self.point(out, y)

    def aggregate(self, operator: SparseTensor, x: Tensor) -> Tensor:
        return self.layer._adjacency.aggregate(operator, x)

    def score(self, x: Tensor, edges) -> Tensor:
        layer = self.layer
        score_src = head_scores(x, layer.attention_src, layer.heads, layer.head_dim)
        score_dst = head_scores(x, layer.attention_dst, layer.heads, layer.head_dim)
        return F.leaky_relu(score_src[edges.src] + score_dst[edges.dst],
                            negative_slope=layer.negative_slope)

    def attend(self, scores: Tensor, edges, values: Tensor) -> Tensor:
        heads, head_dim = self.layer.heads, self.layer.head_dim
        attention = self.point("attention", F.scatter_softmax(
            scores, edges.dst, edges.num_dst))
        per_head = values.reshape(-1, heads, head_dim)
        messages = per_head[edges.src] * attention.reshape(-1, heads, 1)
        return F.segment_sum(messages, edges.dst, edges.num_dst)

    def merge(self, aggregated: Tensor, bias_of: Optional[str] = None) -> Tensor:
        layer = self.layer
        merged = merge_heads(aggregated, layer.heads, layer.head_dim,
                             layer.head_merge)
        if bias_of is None:
            return merged
        return merged + getattr(layer, layer.weight_spec(bias_of).bias)

    def relu(self, x: Tensor) -> Tensor:
        return x.relu()


def _normalized_adjacency(graph: GraphLike) -> SparseTensor:
    return graph.normalized_adjacency()


class QuantGCNConv(QuantConv):
    """GCN convolution with per-component fake quantization.

    Components: ``input`` (first layer only), ``weight``, ``linear_out``,
    ``adjacency`` and ``aggregate_out`` — the decomposition used in the
    paper's two-layer GCN example (nine components across two layers).
    """

    conv_type = "gcn"
    POINTS = (QuantPoint("input", "activation", "input"),
              QuantPoint("weight", "weight"),
              QuantPoint("linear_out", "activation", "linear_out"),
              QuantPoint("adjacency", "adjacency", "adjacency"),
              QuantPoint("aggregate_out", "activation", "aggregate_out"))
    WEIGHTS = (WeightSpec("weight", "linear", "weight"),)

    operator = staticmethod(_normalized_adjacency)

    def __init__(self, in_features: int, out_features: int, bits: ComponentBits,
                 quantize_input: bool = False, bias: bool = True,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.linear = Linear(in_features, out_features, bias=bias, rng=rng)
        self._build_quantizers(bits, quantize_input, quantizer_factory)

    @staticmethod
    def body(ex, x, views):
        x = ex.point("input", x)
        transformed = ex.linear("weight", x, "linear_out")
        aggregated = ex.aggregate(ex.operator(views[0]), transformed)
        return ex.point("aggregate_out", aggregated)


class QuantGINConv(QuantConv):
    """GIN convolution with per-component fake quantization.

    Components: ``input`` (first layer only), ``adjacency``,
    ``aggregate_out``, ``weight_0`` / ``weight_1`` (the two MLP layers) and
    ``output``.  GIN-0: ``eps`` is fixed at 0 here, in the artifact's
    ``LayerPlan.eps`` and in the served layer (PyG's ``train_eps=False``).
    """

    conv_type = "gin"
    POINTS = (QuantPoint("input", "activation", "input"),
              QuantPoint("adjacency", "adjacency", "adjacency"),
              QuantPoint("aggregate_out", "activation", "aggregate_out"),
              QuantPoint("weight_0", "weight"),
              QuantPoint("mlp0_out", "activation", "mlp0_out", shares="aggregate_out"),
              QuantPoint("weight_1", "weight"),
              QuantPoint("output", "activation", "mlp1_out"))
    WEIGHTS = (WeightSpec("mlp0", "mlp_first", "weight_0"),
               WeightSpec("mlp1", "mlp_second", "weight_1"))

    @staticmethod
    def operator(graph: GraphLike) -> SparseTensor:
        return graph.adjacency(add_self_loops=False)

    def __init__(self, in_features: int, out_features: int, bits: ComponentBits,
                 quantize_input: bool = False,
                 hidden_features: Optional[int] = None,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        hidden = hidden_features if hidden_features is not None else out_features
        self.hidden_features = hidden
        self.mlp_first = Linear(in_features, hidden, rng=rng)
        self.mlp_second = Linear(hidden, out_features, rng=rng)
        self._build_quantizers(bits, quantize_input, quantizer_factory)

    @staticmethod
    def body(ex, x, views):
        x = ex.point("input", x)
        aggregated = ex.aggregate(ex.operator(views[0]), x)
        combined = target_features(x, views[0]) * (1.0 + ex.layer.eps) + aggregated
        combined = ex.point("aggregate_out", combined)
        hidden = ex.relu(ex.linear("mlp0", combined, "mlp0_out"))
        return ex.linear("mlp1", hidden, "output")


class QuantSAGEConv(QuantConv):
    """GraphSAGE convolution with per-component fake quantization.

    Components: ``input`` (first layer only), ``adjacency``,
    ``aggregate_out``, ``weight_root``, ``weight_neighbour`` and ``output``.
    """

    conv_type = "sage"
    POINTS = (QuantPoint("input", "activation", "input"),
              QuantPoint("adjacency", "adjacency", "adjacency"),
              QuantPoint("aggregate_out", "activation", "aggregate_out"),
              QuantPoint("weight_root", "weight"),
              QuantPoint("weight_neighbour", "weight"),
              QuantPoint("output", "activation", "output"))
    WEIGHTS = (WeightSpec("root", "linear_root", "weight_root"),
               WeightSpec("neighbour", "linear_neighbour", "weight_neighbour"))

    operator = staticmethod(mean_adjacency)

    def __init__(self, in_features: int, out_features: int, bits: ComponentBits,
                 quantize_input: bool = False,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.linear_root = Linear(in_features, out_features, bias=True, rng=rng)
        self.linear_neighbour = Linear(in_features, out_features, bias=False, rng=rng)
        self._build_quantizers(bits, quantize_input, quantizer_factory)

    @staticmethod
    def body(ex, x, views):
        x = ex.point("input", x)
        aggregated = ex.point("aggregate_out",
                              ex.aggregate(ex.operator(views[0]), x))
        out = ex.linear("root", target_features(x, views[0])) \
            + ex.linear("neighbour", aggregated)
        return ex.point("output", out)


class QuantGATConv(QuantConv):
    """Multi-head GAT convolution with per-component fake quantization.

    Components: ``input`` (first layer only), ``weight`` (the feature
    transform), ``linear_out``, ``attention`` (the post-softmax attention
    coefficients, quantized symmetrically like an adjacency) and
    ``aggregate_out``.  The attention parameter vectors and the score /
    softmax stage stay in full precision — only the coefficient matrix that
    weights the aggregation is quantized, which is what lets the serving
    executor run the aggregation as an integer per-edge score plan.  Heads
    add a score column each (coefficients ``(E, H)``, one shared
    ``attention`` quantizer) and never change the component set.
    """

    conv_type = "gat"
    POINTS = (QuantPoint("input", "activation", "input"),
              QuantPoint("weight", "weight"),
              QuantPoint("linear_out", "activation", "linear_out"),
              QuantPoint("attention", "adjacency", "attention"),
              QuantPoint("aggregate_out", "activation", "aggregate_out"))
    # The per-head FP32 attention vectors are exported column-per-head
    # (``(head_dim, heads)``), matching the parameter layout.
    WEIGHTS = (WeightSpec("weight", "linear", "weight", bias="bias"),
               WeightSpec("attention_src", "attention_src"),
               WeightSpec("attention_dst", "attention_dst"))

    operator = staticmethod(attention_edges)

    def __init__(self, in_features: int, out_features: int, bits: ComponentBits,
                 quantize_input: bool = False, negative_slope: float = 0.2,
                 heads: int = 1, head_merge: str = "concat",
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
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
        self._build_quantizers(bits, quantize_input, quantizer_factory)

    @staticmethod
    def body(ex, x, views):
        x = ex.point("input", x)
        # The bias applies after the head merge, so the transform runs bias-free.
        transformed = ex.linear("weight", x, "linear_out", bias=False)
        edges = ex.operator(views[0])
        aggregated = ex.attend(ex.score(transformed, edges), edges, transformed)
        return ex.point("aggregate_out", ex.merge(aggregated, bias_of="weight"))


class QuantTransformerConv(QuantConv):
    """Multi-head transformer convolution with per-component fake quantization.

    Components: ``input`` (first layer only), ``weight_query`` /
    ``weight_key`` / ``weight_value``, ``value_out``, ``attention`` (the
    post-softmax coefficients) and ``aggregate_out``.  Scores (scaled
    query·key dot products, one column per head) and the softmax stay in
    full precision; heads never change the component set.
    """

    conv_type = "transformer"
    POINTS = (QuantPoint("input", "activation", "input"),
              QuantPoint("weight_query", "weight"),
              QuantPoint("weight_key", "weight"),
              QuantPoint("weight_value", "weight"),
              QuantPoint("value_out", "activation", "value_out"),
              QuantPoint("attention", "adjacency", "attention"),
              QuantPoint("aggregate_out", "activation", "aggregate_out"))
    WEIGHTS = (WeightSpec("query", "query", "weight_query"),
               WeightSpec("key", "key", "weight_key"),
               WeightSpec("value", "value", "weight_value"))

    operator = staticmethod(attention_edges)

    def __init__(self, in_features: int, out_features: int, bits: ComponentBits,
                 quantize_input: bool = False, heads: int = 1,
                 head_merge: str = "concat",
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.heads = int(heads)
        self.head_merge = head_merge
        self.head_dim = attention_head_dim(out_features, self.heads, head_merge)
        width = self.heads * self.head_dim
        self.query = Linear(in_features, width, bias=False, rng=rng)
        self.key = Linear(in_features, width, bias=False, rng=rng)
        self.value = Linear(in_features, width, bias=True, rng=rng)
        self._build_quantizers(bits, quantize_input, quantizer_factory)

    @staticmethod
    def body(ex, x, views):
        x = ex.point("input", x)
        heads, head_dim = ex.layer.heads, ex.layer.head_dim
        queries = ex.linear("query", x).reshape(-1, heads, head_dim)
        keys = ex.linear("key", x).reshape(-1, heads, head_dim)
        values = ex.linear("value", x, "value_out")
        edges = ex.operator(views[0])
        scale = 1.0 / np.sqrt(head_dim)
        scores = (queries[edges.dst] * keys[edges.src]).sum(axis=-1) * scale
        return ex.point("aggregate_out",
                        ex.merge(ex.attend(scores, edges, values)))


class QuantTAGConv(QuantConv):
    """TAG convolution with per-component fake quantization.

    Components: ``input`` (first layer only), ``adjacency``, ``hop_out``
    (the propagated features after every hop, one shared quantizer),
    ``weight_0`` … ``weight_K`` (one per adjacency power) and ``output``.
    In minibatch mode the layer consumes ``hops`` stacked blocks — its
    per-layer hop plan (:func:`~repro.gnn.tag.hop_views`).
    """

    conv_type = "tag"
    POINTS = (QuantPoint("input", "activation", "input"),
              QuantPoint("adjacency", "adjacency", "adjacency"),
              QuantPoint("hop_out", "activation", "hop_out"),
              QuantPoint("weight_{k}", "weight"),
              QuantPoint("output", "activation", "output"))
    WEIGHTS = (WeightSpec("hop{k}", "linears.{k}", "weight_{k}"),)

    operator = staticmethod(_normalized_adjacency)

    def __init__(self, in_features: int, out_features: int, bits: ComponentBits,
                 quantize_input: bool = False, hops: int = 3,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if hops < 1:
            raise ValueError("QuantTAGConv needs at least one hop")
        self.in_features = in_features
        self.out_features = out_features
        self.hops = hops
        self.linears = ModuleList(
            [Linear(in_features, out_features, bias=(k == 0), rng=rng)
             for k in range(hops + 1)])
        self._build_quantizers(bits, quantize_input, quantizer_factory)

    @staticmethod
    def body(ex, x, views):
        # Every hop's term is restricted to the last view's targets; hop
        # outputs are row-indexed by their own view's target side.
        x = ex.point("input", x)
        last = views[-1]
        output = ex.linear("hop0", target_features(x, last))
        propagated = x
        for hop, view in enumerate(views, start=1):
            propagated = ex.point("hop_out", ex.aggregate(ex.operator(view),
                                                          propagated), rows=view)
            output = output + ex.linear(f"hop{hop}",
                                        target_features(propagated, last))
        return ex.point("output", output, rows=last)


def _layer_assignment(assignment: BitWidthAssignment, prefix: str) -> ComponentBits:
    """Extract the ``component -> bits`` mapping for one layer prefix."""
    marker = prefix + "."
    return {key[len(marker):]: value for key, value in assignment.items()
            if key.startswith(marker)}


#: The one dispatch table from a conv family name to its quantized layer.
CONV_CLASSES = {conv_class.conv_type: conv_class for conv_class in (
    QuantGCNConv, QuantGINConv, QuantSAGEConv, QuantGATConv, QuantTAGConv,
    QuantTransformerConv)}


def _conv_class(conv_type: str):
    if conv_type not in CONV_CLASSES:
        raise KeyError(f"unknown conv type {conv_type!r}; "
                       f"options: {sorted(CONV_CLASSES)}")
    return CONV_CLASSES[conv_type]


class QuantNodeClassifier(Module):
    """Convolution stack for transductive node classification.

    The final convolution outputs ``num_classes`` logits directly (matching
    the two-layer GCN formulation the paper quantizes).  Built from an empty
    assignment it is the FP32 model (:func:`repro.core.build.build_node_model`);
    the QAT, Degree-Quant and relaxed search models differ from it only in
    their quantizer factory.

    Besides a full :class:`Graph`, the forward pass accepts a
    :class:`~repro.graphs.sampling.BlockBatch` from the neighbor sampler, in
    which case the output has one logits row per seed node.
    """

    def __init__(self, convs: List[Module], dropout: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not convs:
            raise ValueError("QuantNodeClassifier needs at least one convolution")
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

    # ------------------------------------------------------------------ #
    def component_bits(self) -> ComponentBits:
        bits: ComponentBits = {}
        for index, conv in enumerate(self.convs):
            bits.update(conv.component_bits(f"conv{index}"))
        return bits

    def average_bits(self) -> float:
        return average_bits(self.component_bits().values())

    def bit_operations(self, graph: Graph) -> BitOpsCounter:
        counter = BitOpsCounter()
        incoming = FP32_BITS
        for index, conv in enumerate(self.convs):
            layer_counter, incoming = conv.bit_operations(graph, incoming, f"conv{index}")
            counter.extend(layer_counter)
        return counter

    # ------------------------------------------------------------------ #
    @classmethod
    def from_assignment(cls, layer_dims: List[tuple], conv_type: str,
                        assignment: BitWidthAssignment, dropout: float = 0.5,
                        quantizer_factory: QuantizerFactory = default_quantizer_factory,
                        hops: int = 3, heads: int = 1, head_merge: str = "concat",
                        rng: Optional[np.random.Generator] = None) -> "QuantNodeClassifier":
        """Build a quantized classifier from layer dimensions and a bit assignment.

        ``layer_dims`` is a list of ``(in_features, out_features)`` tuples and
        ``conv_type`` one of ``"gcn"`` / ``"gin"`` / ``"sage"`` / ``"gat"`` /
        ``"tag"`` / ``"transformer"``.  ``hops`` only applies to ``"tag"``;
        ``heads`` / ``head_merge`` only to the attention families — hidden
        layers merge by ``head_merge``, the output layer by ``mean``
        (:func:`~repro.gnn.models.head_merge_for_layer`).
        """
        conv_class = _conv_class(conv_type)
        convs: List[Module] = []
        for index, (fan_in, fan_out) in enumerate(layer_dims):
            layer_bits = _layer_assignment(assignment, f"conv{index}")
            if conv_type == "tag":
                extra = {"hops": hops}
            elif conv_type in ("gat", "transformer"):
                extra = {"heads": heads,
                         "head_merge": head_merge_for_layer(index, len(layer_dims),
                                                            heads, head_merge)}
            else:
                extra = {}
            convs.append(conv_class(fan_in, fan_out, layer_bits,
                                    quantize_input=(index == 0),
                                    quantizer_factory=quantizer_factory, rng=rng,
                                    **extra))
        return cls(convs, dropout=dropout, rng=rng)


class QuantGraphClassifier(Module):
    """GIN architecture for graph classification (Tables 8 and 9).

    ``num_layers`` GIN-0 convolutions followed by global pooling (max by
    default, per the paper's overflow argument) and a two-layer readout
    head.  Built from an empty assignment it is the FP32 model.
    """

    def __init__(self, in_features: int, hidden_features: int, num_classes: int,
                 assignment: BitWidthAssignment, num_layers: int = 5,
                 pooling: str = "max", dropout: float = 0.5,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        convs: List[Module] = []
        for index in range(num_layers):
            fan_in = in_features if index == 0 else hidden_features
            layer_bits = _layer_assignment(assignment, f"conv{index}")
            convs.append(QuantGINConv(fan_in, hidden_features, layer_bits,
                                      quantize_input=(index == 0),
                                      quantizer_factory=quantizer_factory, rng=rng))
        self.convs = ModuleList(convs)
        self.pooling_name = pooling
        self._pool = get_pooling(pooling)
        head_bits = _layer_assignment(assignment, "head0")
        out_bits = _layer_assignment(assignment, "head1")
        self.head_hidden = QuantLinear(hidden_features, hidden_features,
                                       weight_bits=int(head_bits.get("weight", FP32_BITS)),
                                       output_bits=int(head_bits.get("output", FP32_BITS)),
                                       quantizer_factory=quantizer_factory, rng=rng)
        self.head_out = QuantLinear(hidden_features, num_classes,
                                    weight_bits=int(out_bits.get("weight", FP32_BITS)),
                                    output_bits=int(out_bits.get("output", FP32_BITS)),
                                    quantizer_factory=quantizer_factory, rng=rng)
        self.activation = ReLU()
        self.dropout = Dropout(dropout, rng=rng)
        self.hidden_features = hidden_features
        self.num_classes = num_classes

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

    def component_bits(self) -> ComponentBits:
        bits: ComponentBits = {}
        for index, conv in enumerate(self.convs):
            bits.update(conv.component_bits(f"conv{index}"))
        bits.update(self.head_hidden.component_bits("head0"))
        bits.update(self.head_out.component_bits("head1"))
        return bits

    def average_bits(self) -> float:
        return average_bits(self.component_bits().values())

    def bit_operations(self, batch: Graph) -> BitOpsCounter:
        counter = BitOpsCounter()
        incoming = FP32_BITS
        for index, conv in enumerate(self.convs):
            layer_counter, incoming = conv.bit_operations(batch, incoming, f"conv{index}")
            counter.extend(layer_counter)
        num_graphs = getattr(batch, "num_graphs", 1)
        head_counter, incoming = self.head_hidden.bit_operations(num_graphs, incoming, "head0")
        counter.extend(head_counter)
        out_counter, _ = self.head_out.bit_operations(num_graphs, incoming, "head1")
        counter.extend(out_counter)
        return counter


def uniform_assignment(component_names: List[str], bits: int) -> BitWidthAssignment:
    """Assign the same bit-width to every named component (uniform QAT baseline)."""
    return {name: int(bits) for name in component_names}


def conv_component_names(conv_type: str, num_layers: int, hops: int = 3) -> List[str]:
    """The named quantization points of a node-classifier conv family.

    One dispatch point shared by the CLI, the experiment runners and the
    test fixtures; only the first layer has an ``input`` component.  ``hops``
    only affects ``"tag"`` (one weight component per adjacency power).
    Attention heads never change the component set: they add score
    *columns* behind one shared per-layer ``attention`` quantizer, so a
    multi-head search runs over exactly the single-head assignment format.
    """
    components = _conv_class(conv_type).components(hops)
    return [f"conv{index}.{component}" for index in range(num_layers)
            for component in components if component != "input" or index == 0]


def gcn_component_names(num_layers: int) -> List[str]:
    """Component names of an ``num_layers``-layer quantized GCN (paper's example)."""
    return conv_component_names("gcn", num_layers)


def gin_component_names(num_layers: int, with_head: bool = True) -> List[str]:
    """Component names of a quantized GIN graph classifier."""
    head = ["head0.weight", "head0.output", "head1.weight", "head1.output"]
    return conv_component_names("gin", num_layers) + (head if with_head else [])


def sage_component_names(num_layers: int) -> List[str]:
    """Component names of a quantized GraphSAGE node classifier."""
    return conv_component_names("sage", num_layers)


def gat_component_names(num_layers: int) -> List[str]:
    """Component names of a quantized GAT node classifier."""
    return conv_component_names("gat", num_layers)
