"""Inference sessions: integer execution of a :class:`QuantizedArtifact`.

Two backends share one layer executor:

* :class:`FullGraphSession` runs every layer over the whole graph — the
  classic Theorem-1 engine.
* :class:`BlockSession` routes the same integer message passing through
  seeded :class:`~repro.graphs.sampling.NeighborSampler` blocks, so a
  request for ``N`` seed nodes touches only their fanout-bounded receptive
  field and the full (normalised) adjacency is never materialised.  The
  *block* adjacency is quantized with the artifact's stored Theorem-1
  constants, which at unlimited fanout makes block serving numerically
  identical to the full-graph engine (the block operators are exact row
  slices of the full operators).

Both quantize activations onto the artifact's stored integer grids, run the
sparse aggregation as an int64 sparse-dense product plus the rank-one
corrections of Theorem 1 (:func:`~repro.quant.integer_mp.quantized_spmm`),
and return float logits plus per-run BitOPs.

Matrix layers (GCN / SAGE / GIN) aggregate with a pre-quantized operator;
attention layers (GAT / Transformer) instead execute a per-edge *score
plan*: scores and softmax run in full precision on the canonical edge list
(:func:`~repro.gnn.attention.attention_edges`), the resulting coefficients
are snapped onto the artifact's stored ``attention`` grid and the
aggregation runs as an integer edge-list accumulation
(:func:`~repro.quant.integer_mp.quantized_edge_spmm`).  TAG layers consume
``plan.hops`` graph views each (one per adjacency power), so samplers size
their block stacks by ``artifact.total_hops``.

The hot-path kernels — Theorem-1 aggregation, the attention score stages
and the dense layer transforms — are not executed inline but dispatched
through the session's kernel backend (:mod:`repro.kernels`): the serving
kernels, unless ``backend=`` names the ``numpy`` reference they are
certified bit-identical to (a test's oracle) or hands over an instance (a
timing or capturing wrapper).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache import BlockCache, CacheStats
from repro.gnn.attention import AttentionEdges
from repro.kernels import BackendLike, dequantize_from, quantize_onto, resolve_backend
from repro.graphs.graph import Graph
from repro.graphs.sampling import Fanout, NeighborSampler, SubgraphBlock
from repro.quant.bitops import FP32_BITS, BitOpsCounter, conv_bit_operations
from repro.quant.qmodules import CONV_CLASSES
from repro.quant.quantizer import QuantizationParameters
from repro.serving.artifact import LayerPlan, QuantizedArtifact
from repro.tensor.sparse import SparseTensor

if TYPE_CHECKING:  # pragma: no cover - circular only for annotations
    from repro.streaming.delta import GraphDelta

GraphLike = Union[Graph, SubgraphBlock]


def _fake_quantize(params: Optional[QuantizationParameters],
                   values: np.ndarray) -> np.ndarray:
    if params is None:
        return values
    return dequantize_from(params, quantize_onto(params, values))


def _quantize_input(plan: LayerPlan, x: np.ndarray,
                    incoming: Optional[QuantizationParameters]):
    """Snap a layer's input onto its integer grid: the layer's own ``input``
    point, else the grid the previous layer's output already sits on.
    Returns ``(x, x_int, params)`` — ``x_int`` / ``params`` None in FP32."""
    params = plan.params("input") if plan.params("input") is not None else incoming
    if params is None:
        return x, None, None
    x_int = quantize_onto(params, x)
    return dequantize_from(params, x_int), x_int, params


def _target_rows(x: np.ndarray, graph_like: GraphLike) -> np.ndarray:
    """Target-side activations: ``x[:num_dst]`` on a block, ``x`` on a graph."""
    if isinstance(graph_like, SubgraphBlock):
        return x[:graph_like.num_dst]
    return x


def _merge_heads(aggregated: np.ndarray, heads: int, head_dim: int,
                 head_merge: str) -> np.ndarray:
    """Merge per-head aggregations ``(N, H, D)`` into the layer output.

    Mirrors :func:`repro.gnn.gat.merge_heads` (``concat`` reshapes, ``mean``
    averages as ``sum * (1 / H)`` exactly like the QAT tensor path);
    ``heads=1`` always takes the reshape branch, the identity on values.
    """
    if head_merge == "mean" and heads > 1:
        return aggregated.sum(axis=1) * (1.0 / heads)
    return aggregated.reshape(aggregated.shape[0], heads * head_dim)


@dataclass
class SessionRun:
    """One serving pass: logits plus the work it took to produce them."""

    logits: np.ndarray
    bit_operations: BitOpsCounter
    num_seeds: int
    num_input_nodes: int
    num_edges: int
    seconds: float

    def giga_bit_operations(self) -> float:
        return self.bit_operations.giga_bit_operations()


class InferenceSession:
    """Protocol base of the serving backends.

    A session is bound to an artifact and a graph; :meth:`run` executes one
    request and reports logits, BitOPs and touched-work statistics, while
    :meth:`predict` / :meth:`predict_classes` are the plain-output
    conveniences.  Subclasses implement :meth:`run`.
    """

    #: True when one :meth:`run` costs the same regardless of the request
    #: size (a full-graph pass): the serving engine then serves a whole
    #: flush with a single run instead of splitting it into micro-batches.
    request_invariant_cost = False

    #: True when the session accepts streaming graph updates through
    #: :meth:`apply_update`.  The serving engines check this before
    #: accepting a delta, so unsupported backends (e.g. the sharded tier,
    #: whose workers each hold a private graph copy) reject updates at
    #: submission instead of silently serving stale shards.
    supports_updates = False

    def __init__(self, artifact: QuantizedArtifact, graph: Graph,
                 backend: BackendLike = None):
        if not artifact.layers:
            raise ValueError("the inference session needs at least one layer")
        self.artifact = artifact
        self.graph = graph
        # The kernels every hot-path stage dispatches through: process-
        # shared and thread-safe (see repro.kernels).
        self.kernels = resolve_backend(backend)
        self.backend_name = self.kernels.name
        # Request-invariant operators of the bound graph, built once per
        # session: the layer's aggregation operator and its (fake-)quantized
        # variants.  Block operators are per-request and bypass these.  The
        # lock keeps the memoisation safe under the serving engine's worker
        # pool (sessions are otherwise stateless per request).
        self._cache_lock = threading.Lock()
        self._operator_cache: dict = {}  # guarded-by: self._cache_lock
        self._quantized_cache: dict = {}  # guarded-by: self._cache_lock

    # ------------------------------------------------------------------ #
    def run(self, nodes: Optional[Sequence[int]] = None) -> SessionRun:
        raise NotImplementedError

    def predict(self, nodes: Optional[Sequence[int]] = None) -> np.ndarray:
        """Float logits for the requested nodes (all nodes by default)."""
        return self.run(nodes).logits

    def predict_classes(self, nodes: Optional[Sequence[int]] = None) -> np.ndarray:
        """Arg-max class predictions for the requested nodes."""
        return self.predict(nodes).argmax(axis=1)

    def bit_operations(self, nodes: Optional[Sequence[int]] = None) -> BitOpsCounter:
        """BitOPs of one serving pass for the requested nodes."""
        return self.run(nodes).bit_operations

    def apply_update(self, delta: "GraphDelta") -> int:
        """Apply one :class:`~repro.streaming.GraphDelta` to the bound graph.

        Returns the new graph version.  Only meaningful between requests —
        the serving engines guarantee that by applying queued deltas at
        flush boundaries only.  Backends that cannot keep their derived
        state consistent leave ``supports_updates`` False and inherit this
        rejection.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support streaming updates")

    # ------------------------------------------------------------------ #
    # request-invariant operators
    # ------------------------------------------------------------------ #
    def _layer_operator(self, conv_type: str, graph_like: GraphLike):
        """The aggregation operator a conv family applies to a graph view —
        a sparse matrix, or the attention families' canonical edge list."""
        build_operator = CONV_CLASSES[conv_type].operator
        if isinstance(graph_like, SubgraphBlock):
            # SubgraphBlock.adjacency()/normalized_adjacency() memoise on the
            # block itself, so a cache-reused block skips the rebuild too.
            return build_operator(graph_like)
        # full-graph views are always the session's bound graph -> memoise
        with self._cache_lock:
            if conv_type not in self._operator_cache:
                self._operator_cache[conv_type] = build_operator(graph_like)
            return self._operator_cache[conv_type]

    def _quantized_operator(self, adjacency: SparseTensor,
                            params: QuantizationParameters,
                            fake: bool) -> SparseTensor:
        """Adjacency on the artifact's stored grid (integer or fake-quantized).

        Cached per source-operator identity: the stored reference keeps the
        source alive so an ``id()`` key can never be reused by a different
        reallocated operator, and eviction keeps per-request block operators
        from accumulating.
        """
        key = (id(adjacency), id(params), fake)
        with self._cache_lock:
            entry = self._quantized_cache.get(key)
        if entry is None or entry[0] is not adjacency or entry[1] is not params:
            integers = quantize_onto(params, adjacency.values.astype(np.float64))
            values = dequantize_from(params, integers) if fake else integers
            quantized = adjacency.with_values(values.astype(np.float32))
            entry = (adjacency, params, quantized)
            with self._cache_lock:
                self._quantized_cache[key] = entry
                while len(self._quantized_cache) > 16:
                    self._quantized_cache.pop(next(iter(self._quantized_cache)))
        return entry[2]

    # reprolint: integer-stage
    def _aggregate(self, adjacency: SparseTensor,
                   adjacency_params: Optional[QuantizationParameters],
                   x: np.ndarray, x_int: Optional[np.ndarray],
                   x_params: Optional[QuantizationParameters]) -> np.ndarray:
        """``A @ X`` through Theorem 1 when both operands carry integer grids.

        Falls back to a float sparse-dense product (with the adjacency still
        on its fake-quantized grid, matching the QAT model) when either side
        is kept in full precision.
        """
        if adjacency_params is not None and x_params is not None and x_int is not None:
            scale_a, _ = adjacency_params.as_scalars()
            scale_x, zero_x = x_params.as_scalars()
            return self.kernels.spmm(
                self._quantized_operator(adjacency, adjacency_params, fake=False),
                scale_a, x_int, scale_x, zero_x)
        if adjacency_params is not None:
            adjacency = self._quantized_operator(adjacency, adjacency_params,
                                                 fake=True)
        return np.asarray(adjacency.csr @ x, dtype=np.float64)

    # reprolint: integer-stage
    def _aggregate_edges(self, attention: np.ndarray,
                         attention_params: Optional[QuantizationParameters],
                         x: np.ndarray, x_int: Optional[np.ndarray],
                         x_params: Optional[QuantizationParameters],
                         edges: AttentionEdges, heads: int,
                         head_dim: int) -> np.ndarray:
        """Attention-weighted aggregation through the per-edge score plan.

        ``attention`` holds the float post-softmax coefficients, one column
        per head (``(E, heads)``); ``x`` / ``x_int`` the pre-merge features
        ``(N, heads * head_dim)``.  When both the coefficients and the
        gathered features carry integer grids the accumulation runs through
        Theorem 1's edge-list form
        (:func:`~repro.quant.integer_mp.quantized_edge_spmm`, head axis and
        all); otherwise it falls back to a float scatter-add with the
        coefficients still on their fake-quantized grid, matching the QAT
        model.  Returns the per-head aggregations ``(num_dst, heads,
        head_dim)`` — merging is the caller's job.
        """
        if attention_params is not None and x_params is not None and x_int is not None:
            attention_int = quantize_onto(attention_params, attention)
            scale_e, _ = attention_params.as_scalars()
            scale_x, zero_x = x_params.as_scalars()
            return self.kernels.edge_spmm(attention_int, scale_e,
                                          x_int.reshape(-1, heads, head_dim),
                                          scale_x, zero_x, edges.src,
                                          edges.dst, edges.num_dst)
        attention = _fake_quantize(attention_params, attention)
        per_head = x.reshape(-1, heads, head_dim)
        aggregated = np.zeros((edges.num_dst, heads, head_dim))
        np.add.at(aggregated, edges.dst,
                  attention[:, :, None] * per_head[edges.src])
        return aggregated

    # ------------------------------------------------------------------ #
    def _forward(self, layer_graphs: Sequence[GraphLike], x: np.ndarray,
                 counter: BitOpsCounter) -> Tuple[np.ndarray, int]:
        """Run the artifact's layer stack over per-hop graph views.

        ``layer_graphs`` carries one view per *hop* (``artifact.total_hops``
        in total): single-hop layers consume one view, TAG layers a run of
        ``plan.hops`` consecutive views.  Returns the logits of the target
        side of the last layer and the total number of edges (messages)
        touched; the BitOPs of every layer — at the ``nnz`` of the operators
        it actually applied — are appended to ``counter``.
        """
        plans = self.artifact.layers
        total_hops = self.artifact.total_hops
        if len(layer_graphs) != total_hops:
            raise ValueError(f"artifact needs {total_hops} graph views (one "
                             f"per hop) but {len(layer_graphs)} were given")
        incoming: Optional[QuantizationParameters] = None
        edges = 0
        last = len(plans) - 1
        cursor = 0
        for index, plan in enumerate(plans):
            views = list(layer_graphs[cursor:cursor + plan.hops])
            cursor += plan.hops
            run_layer = getattr(self, f"_run_{plan.conv_type}", None)
            if run_layer is None:
                raise ValueError(f"unknown conv type {plan.conv_type!r}")
            out, outgoing, nnz = run_layer(plan, views, x, incoming)
            layer_counter, _ = conv_bit_operations(
                plan, f"conv{index}", plan.slot_bits, x.shape[0], out.shape[0],
                nnz, FP32_BITS if incoming is None else int(incoming.bits))
            counter.extend(layer_counter)
            edges += sum(nnz)
            x, incoming = out, outgoing
            if index != last:
                x = np.maximum(x, 0.0)  # ReLU between layers
        return x, edges

    # ------------------------------------------------------------------ #
    # The integer forwards, one per family: ``(plan, views, x, incoming)``
    # -> ``(output, output grid, nnz of each operator applied)``.
    # ------------------------------------------------------------------ #
    def _run_gcn(self, plan: LayerPlan, views: List[GraphLike], x: np.ndarray,
                 incoming: Optional[QuantizationParameters]):
        x = _fake_quantize(plan.params("input"), x)
        linear_out = plan.params("linear_out")
        transformed, transformed_int = self.kernels.linear_requant(
            x, plan.weights["weight"], linear_out)

        adjacency = self._layer_operator("gcn", views[0])
        aggregated = self._aggregate(adjacency, plan.params("adjacency"),
                                     transformed, transformed_int, linear_out)
        aggregate_out = plan.params("aggregate_out")
        return _fake_quantize(aggregate_out, aggregated), aggregate_out, \
            [adjacency.nnz]

    def _run_sage(self, plan: LayerPlan, views: List[GraphLike], x: np.ndarray,
                  incoming: Optional[QuantizationParameters]):
        x, x_int, params_x = _quantize_input(plan, x, incoming)

        adjacency = self._layer_operator("sage", views[0])
        aggregated = self._aggregate(adjacency, plan.params("adjacency"),
                                     x, x_int, params_x)
        aggregated = _fake_quantize(plan.params("aggregate_out"), aggregated)

        out, _ = self.kernels.linear_requant(_target_rows(x, views[0]),
                                             plan.weights["root"], None)
        out = out + aggregated @ self.kernels.weight_matrix(
            plan.weights["neighbour"])
        output = plan.params("output")
        return _fake_quantize(output, out), output, [adjacency.nnz]

    def _run_gin(self, plan: LayerPlan, views: List[GraphLike], x: np.ndarray,
                 incoming: Optional[QuantizationParameters]):
        x, x_int, params_x = _quantize_input(plan, x, incoming)

        adjacency = self._layer_operator("gin", views[0])
        aggregated = self._aggregate(adjacency, plan.params("adjacency"),
                                     x, x_int, params_x)
        combined = _target_rows(x, views[0]) * (1.0 + plan.eps) + aggregated
        combined = _fake_quantize(plan.params("aggregate_out"), combined)

        hidden, _ = self.kernels.linear_requant(combined, plan.weights["mlp0"],
                                                plan.params("mlp0_out"))
        hidden = np.maximum(hidden, 0.0)  # the MLP's internal ReLU

        mlp1_out = plan.params("mlp1_out")
        out, _ = self.kernels.linear_requant(hidden, plan.weights["mlp1"],
                                             mlp1_out)
        return out, mlp1_out, [adjacency.nnz]

    # ------------------------------------------------------------------ #
    # attention score plans
    # ------------------------------------------------------------------ #
    def _attend(self, plan: LayerPlan, scores: np.ndarray, edges: AttentionEdges,
                values: np.ndarray, values_int: Optional[np.ndarray],
                value_params: Optional[QuantizationParameters],
                bias: Optional[np.ndarray] = None):
        """Shared tail of the attention forwards: per-target softmax of the
        edge scores, the attention-weighted aggregation of ``values``, the
        head merge, the post-merge ``bias`` (GAT) and the output grid."""
        attention = self.kernels.edge_softmax(scores, edges.dst, edges.num_dst)
        aggregated = self._aggregate_edges(attention, plan.params("attention"),
                                           values, values_int, value_params,
                                           edges, plan.heads, plan.head_dim)
        merged = _merge_heads(aggregated, plan.heads, plan.head_dim,
                              plan.head_merge)
        if bias is not None:
            merged = merged + bias
        aggregate_out = plan.params("aggregate_out")
        return _fake_quantize(aggregate_out, merged), aggregate_out, \
            [edges.num_edges]

    def _run_gat(self, plan: LayerPlan, views: List[GraphLike], x: np.ndarray,
                 incoming: Optional[QuantizationParameters]):
        x = _fake_quantize(plan.params("input"), x)
        weight = plan.weights["weight"]
        linear_out = plan.params("linear_out")
        # The GAT bias applies post-merge, so the transform runs bias-free.
        transformed, transformed_int = self.kernels.linear_requant(
            x, weight, linear_out, add_bias=False)

        heads, head_dim = plan.heads, plan.head_dim
        edges = self._layer_operator("gat", views[0])
        attention_src = plan.weights["attention_src"].dequantized() \
            .reshape(head_dim, heads)
        attention_dst = plan.weights["attention_dst"].dequantized() \
            .reshape(head_dim, heads)
        scores = self.kernels.gat_scores(transformed, attention_src,
                                         attention_dst, edges.src, edges.dst,
                                         heads, head_dim)
        scores = np.where(scores > 0, scores, plan.negative_slope * scores)
        return self._attend(plan, scores, edges, transformed, transformed_int,
                            linear_out, bias=weight.bias)

    def _run_transformer(self, plan: LayerPlan, views: List[GraphLike],
                         x: np.ndarray,
                         incoming: Optional[QuantizationParameters]):
        x = _fake_quantize(plan.params("input"), x)
        heads, head_dim = plan.heads, plan.head_dim
        queries = (x @ self.kernels.weight_matrix(plan.weights["query"])) \
            .reshape(-1, heads, head_dim)
        keys = (x @ self.kernels.weight_matrix(plan.weights["key"])) \
            .reshape(-1, heads, head_dim)
        value_out = plan.params("value_out")
        values, values_int = self.kernels.linear_requant(
            x, plan.weights["value"], value_out)

        edges = self._layer_operator("transformer", views[0])
        scale = 1.0 / np.sqrt(head_dim)
        scores = (queries[edges.dst] * keys[edges.src]).sum(axis=-1) * scale
        return self._attend(plan, scores, edges, values, values_int, value_out)

    def _run_tag(self, plan: LayerPlan, views: List[GraphLike], x: np.ndarray,
                 incoming: Optional[QuantizationParameters]):
        x, x_int, params_x = _quantize_input(plan, x, incoming)

        last = views[-1]
        num_final = last.num_dst if isinstance(last, SubgraphBlock) else x.shape[0]

        out, _ = self.kernels.linear_requant(x[:num_final],
                                             plan.weights["hop0"], None)

        hop_out = plan.params("hop_out")
        propagated, propagated_int, params_p = x, x_int, params_x
        per_hop_nnz: List[int] = []
        for hop, view in enumerate(views, start=1):
            adjacency = self._layer_operator("tag", view)
            per_hop_nnz.append(adjacency.nnz)
            propagated = self._aggregate(adjacency, plan.params("adjacency"),
                                         propagated, propagated_int, params_p)
            propagated_int = None
            if hop_out is not None:
                propagated_int = quantize_onto(hop_out, propagated)
                propagated = dequantize_from(hop_out, propagated_int)
            params_p = hop_out
            out = out + propagated[:num_final] @ self.kernels.weight_matrix(
                plan.weights[f"hop{hop}"])

        output = plan.params("output")
        return _fake_quantize(output, out), output, per_hop_nnz


class FullGraphSession(InferenceSession):
    """Integer inference over the whole graph (every layer, every node)."""

    request_invariant_cost = True
    supports_updates = True

    def apply_update(self, delta: "GraphDelta") -> int:
        """Apply a delta and drop the memoised full-graph operators.

        The full-graph path holds no sampled state, so consistency needs
        nothing beyond rebuilding the (lazily re-derived) aggregation
        operators on next use.
        """
        self.graph.apply_delta(delta)
        with self._cache_lock:
            self._operator_cache.clear()
            self._quantized_cache.clear()
        return self.graph.version

    def run(self, nodes: Optional[Sequence[int]] = None) -> SessionRun:
        start = time.perf_counter()
        counter = BitOpsCounter()
        x = self.graph.x.astype(np.float64)
        logits, edges = self._forward([self.graph] * self.artifact.total_hops,
                                      x, counter)
        if nodes is not None:
            nodes = np.asarray(nodes, dtype=np.int64)
            logits = logits[nodes]
            num_seeds = int(nodes.shape[0])
        else:
            num_seeds = self.graph.num_nodes
        return SessionRun(logits=logits, bit_operations=counter,
                          num_seeds=num_seeds,
                          num_input_nodes=self.graph.num_nodes,
                          num_edges=edges,
                          seconds=time.perf_counter() - start)

    def bit_operations(self, nodes: Optional[Sequence[int]] = None) -> BitOpsCounter:
        """BitOPs of one full-graph pass, derived from the layer plans and the
        graph structure without executing any layer.

        A full-graph pass always computes every node, so its cost does not
        depend on ``nodes`` (accepted for interface compatibility).
        """
        counter = BitOpsCounter()
        num_nodes = self.graph.num_nodes
        incoming = FP32_BITS
        for index, plan in enumerate(self.artifact.layers):
            nnz = self._layer_operator(plan.conv_type, self.graph).nnz
            layer_counter, incoming = conv_bit_operations(
                plan, f"conv{index}", plan.slot_bits, num_nodes, num_nodes,
                [nnz] * plan.hops, incoming)
            counter.extend(layer_counter)
        return counter


class BlockSession(InferenceSession):
    """Integer inference over sampled receptive-field blocks.

    Parameters
    ----------
    artifact / graph:
        The deployment artifact and the graph to serve requests against.
    fanouts:
        Per-hop neighbour caps (innermost first); an ``int`` broadcasts
        over the artifact's ``total_hops`` (TAG layers consume one block
        per adjacency power), ``None`` / non-positive keeps every
        neighbour — with unlimited fanout block serving matches the
        full-graph engine to float round-off.
    batch_size:
        Seed nodes per sampled micro-batch inside one :meth:`run`.
    seed:
        Seed of the sampler's counter-based edge-sampling hash (seed order
        is never shuffled, so logits line up with the request; sampling is
        a pure function of the request, so repeat requests are identical).
    cache_size / cache_bytes:
        When ``cache_size`` is positive, attach a
        :class:`~repro.cache.BlockCache` of that many entries (optionally
        byte-bounded): repeat requests reuse whole sampled batches — and
        their already-quantized block operators — while overlapping
        requests reuse per-seed rows.  Cached serving is bit-identical to
        uncached serving.
    backend:
        ``None`` serves with the serving kernels; ``"numpy"`` asks for the
        reference they are certified against, an instance is used as
        given (see :mod:`repro.kernels`).  Logits are bit-identical.
    """

    supports_updates = True

    def __init__(self, artifact: QuantizedArtifact, graph: Graph,
                 fanouts: Union[Fanout, Sequence[Fanout]] = None,
                 batch_size: int = 1024, seed: int = 0, cache_size: int = 0,
                 cache_bytes: Optional[int] = None,
                 backend: BackendLike = None):
        super().__init__(artifact, graph, backend=backend)
        from repro.streaming import RegionVersions

        self.batch_size = int(batch_size)
        self.cache = BlockCache(max_entries=cache_size, max_bytes=cache_bytes) \
            if cache_size > 0 else None
        #: Row/region version counters streamed updates advance; stamped
        #: into every cache key so invalidation scopes to receptive fields.
        self.versions = RegionVersions(graph.num_nodes)
        self.sampler = self._make_sampler(
            graph, fanouts=fanouts, batch_size=self.batch_size,
            num_layers=artifact.total_hops,
            seed_nodes=np.arange(graph.num_nodes, dtype=np.int64),
            shuffle=False, seed=seed, cache=self.cache,
            versions=self.versions)

    def _make_sampler(self, graph: Graph, **kwargs) -> NeighborSampler:
        """The session's sampler; a shard worker returns its own subclass."""
        return NeighborSampler(graph, **kwargs)

    def cache_stats(self) -> Optional[CacheStats]:
        """Hit/miss/eviction counters of the block cache (None when off)."""
        return None if self.cache is None else self.cache.stats()

    def apply_update(self, delta: "GraphDelta") -> int:
        """Apply a delta with invalidation scoped to its receptive fields.

        Ordering matters and is pinned here: the graph mutates first, the
        affected region is computed on the *post-update* adjacency (sound
        for pre-update entries too — see
        :func:`~repro.streaming.affected_region`), row versions advance for
        changed adjacency rows and region versions for every node within
        ``total_hops`` of the delta, the sampler re-derives its degree
        state, and only then are the now-unreachable cache entries evicted.
        Everything outside the affected region keeps its warm entries,
        which is the whole point of scoped invalidation.
        """
        from repro.streaming import affected_region

        applied = self.graph.apply_delta(delta)
        region = affected_region(self.graph, applied.touched_nodes(),
                                 self.artifact.total_hops)
        self.versions.bump(applied.changed_rows(), region)
        self.sampler.refresh_graph()
        if self.cache is not None:
            self.cache.invalidate_nodes(region)
        with self._cache_lock:
            self._operator_cache.clear()
            self._quantized_cache.clear()
        return self.graph.version

    def run(self, nodes: Optional[Sequence[int]] = None) -> SessionRun:
        start = time.perf_counter()
        seeds = np.arange(self.graph.num_nodes, dtype=np.int64) if nodes is None \
            else np.asarray(nodes, dtype=np.int64).reshape(-1)
        if seeds.shape[0] == 0:
            return SessionRun(
                logits=np.zeros((0, self.artifact.num_classes)),
                bit_operations=BitOpsCounter(), num_seeds=0, num_input_nodes=0,
                num_edges=0, seconds=time.perf_counter() - start)
        counter = BitOpsCounter()
        pieces: List[np.ndarray] = []
        input_nodes = 0
        edges = 0
        for batch in self.sampler.iter_batches(seeds):
            logits, batch_edges = self._forward(batch.blocks,
                                                batch.x.astype(np.float64), counter)
            pieces.append(logits)
            input_nodes += int(batch.input_nodes.shape[0])
            edges += batch_edges
        logits = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)
        return SessionRun(logits=logits, bit_operations=counter,
                          num_seeds=int(seeds.shape[0]),
                          num_input_nodes=input_nodes, num_edges=edges,
                          seconds=time.perf_counter() - start)
