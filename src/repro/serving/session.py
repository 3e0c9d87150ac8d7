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

The layer executor is :class:`IntegerExecutor`: it runs each family's one
:meth:`~repro.quant.qmodules.QuantConv.body`, the same arithmetic QAT
trains, on the artifact's stored integer grids.  Matrix layers (GCN /
SAGE / GIN / TAG) aggregate as an int64 sparse-dense product plus the
rank-one corrections of Theorem 1 (the ``spmm`` kernel): the operator's
values are quantized once into int64 on its own CSR ``indices`` /
``indptr`` — for a block, the canonical CSR the sampler built — and the
kernel multiplies by that operator as it is.  Attention layers
(GAT / Transformer) execute a per-edge *score plan*: scores and softmax
run in full precision on the canonical edge list
(:func:`~repro.gnn.attention.attention_edges`), the coefficients are
snapped onto the artifact's ``attention`` grid and the aggregation runs
as an integer edge-list accumulation (the ``edge_spmm`` kernel).  TAG
layers consume ``plan.hops`` graph views each (one per adjacency power),
so samplers size their block stacks by ``artifact.total_hops``.

Every kernel — Theorem-1 aggregation, the attention score stages and the
dense layer transforms — is dispatched through ``session.kernels``
(:mod:`repro.kernels`): the serving kernels, unless ``backend=`` names the
``numpy`` reference they are certified bit-identical to (a test's oracle)
or hands over an instance (a timing or capturing wrapper).
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
        """Adjacency on the artifact's stored grid.

        ``fake=False`` is the integer operator ``Q_A`` that ``spmm``
        consumes: int64 values, quantized once, on the source operator's
        own ``indices`` / ``indptr``.  ``fake=True`` is the float32
        fake-quantized operator the float fallback multiplies by.

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
            if fake:
                quantized = adjacency.with_values(
                    dequantize_from(params, integers).astype(np.float32))
            else:
                csr = adjacency.csr
                quantized = SparseTensor.from_csr(
                    integers.astype(np.int64), csr.indices, csr.indptr,
                    csr.shape)
            entry = (adjacency, params, quantized)
            with self._cache_lock:
                self._quantized_cache[key] = entry
                while len(self._quantized_cache) > 16:
                    self._quantized_cache.pop(next(iter(self._quantized_cache)))
        return entry[2]

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
            executor = IntegerExecutor(self, plan, incoming)
            out = CONV_CLASSES[plan.conv_type].body(executor, x, views)
            layer_counter, _ = conv_bit_operations(
                plan, f"conv{index}", plan.slot_bits, x.shape[0], out.shape[0],
                executor.nnz, FP32_BITS if incoming is None else int(incoming.bits))
            counter.extend(layer_counter)
            edges += sum(executor.nnz)
            x, (_, incoming) = out, executor.grid(out)
            if index != last:
                x = np.maximum(x, 0.0)  # ReLU between layers
        return x, edges

class IntegerExecutor:
    """Runs a family's :meth:`~repro.quant.qmodules.QuantConv.body` on an
    artifact's integer grids, with the :class:`LayerPlan` as parameter store.

    The executor remembers the last array a point or a linear snapped onto
    a grid, with its grid integers; every family body aggregates that
    array, which then runs through Theorem 1 (``spmm`` / ``edge_spmm``).
    Each snap forgets the previous one before it allocates, so a request
    never holds two grids' integers at once (they would raise its peak
    memory).  A
    layer without an ``input`` grid of its own takes its input on
    ``incoming``, the grid the previous layer's output sits on.  Any other
    operand is aggregated as a float product, with the adjacency or
    attention still on its fake-quantized grid, as in the QAT model.
    ``nnz`` collects the non-zeros of every operator applied.  Every kernel
    call goes through ``session.kernels``.
    """

    def __init__(self, session: "InferenceSession", plan: LayerPlan,
                 incoming: Optional[QuantizationParameters]):
        self.session = session
        self.kernels = session.kernels
        self.layer = plan
        self.incoming = incoming
        self.family = CONV_CLASSES[plan.conv_type]
        self.nnz: List[int] = []
        # (array, its grid integers or None until needed, the grid)
        self._snapped: tuple = (None, None, None)

    def _snap(self, array: np.ndarray, integers: Optional[np.ndarray],
              params: Optional[QuantizationParameters]) -> np.ndarray:
        if params is not None:
            self._snapped = (array, integers, params)
        return array

    def grid(self, array: np.ndarray):
        """``(integers, params)`` if ``array`` is the last one snapped onto a
        grid, else ``(None, None)``."""
        snapped, integers, params = self._snapped
        if snapped is not array:
            return None, None
        if integers is None:
            integers = quantize_onto(params, array)
        return integers, params

    def operator(self, view: GraphLike):
        return self.session._layer_operator(self.layer.conv_type, view)

    def point(self, component: str, x: np.ndarray, rows=None) -> np.ndarray:
        params = self.layer.params(self.family.point_slot(component))
        if params is None:
            # The previous layer's output already sits on ``incoming``.
            return self._snap(x, None, self.incoming) \
                if component == "input" else x
        self._snapped = (None, None, None)
        integers = quantize_onto(params, x)
        return self._snap(dequantize_from(params, integers), integers, params)

    def linear(self, slot: str, x: np.ndarray, out: Optional[str] = None,
               bias: bool = True) -> np.ndarray:
        params = None
        if out is not None:
            params = self.layer.params(self.family.point_slot(out))
            self._snapped = (None, None, None)
        transformed, integers = self.kernels.linear_requant(
            x, self.layer.weights[slot], params, add_bias=bias)
        return self._snap(transformed, integers, params)

    # reprolint: integer-stage
    def aggregate(self, adjacency: SparseTensor, x: np.ndarray) -> np.ndarray:
        """``A @ X``, through Theorem 1 when both operands carry grids."""
        self.nnz.append(adjacency.nnz)
        adjacency_params = self.layer.params("adjacency")
        if adjacency_params is None:
            return np.asarray(adjacency.csr @ x, dtype=np.float64)
        x_int, x_params = self.grid(x)
        if x_params is not None:
            scale_a, _ = adjacency_params.as_scalars()
            scale_x, zero_x = x_params.as_scalars()
            return self.kernels.spmm(
                self.session._quantized_operator(adjacency, adjacency_params,
                                                 fake=False),
                scale_a, x_int, scale_x, zero_x)
        adjacency = self.session._quantized_operator(adjacency, adjacency_params,
                                                     fake=True)
        return np.asarray(adjacency.csr @ x, dtype=np.float64)

    def score(self, x: np.ndarray, edges: AttentionEdges) -> np.ndarray:
        plan = self.layer
        attention_src = plan.weights["attention_src"].dequantized() \
            .reshape(plan.head_dim, plan.heads)
        attention_dst = plan.weights["attention_dst"].dequantized() \
            .reshape(plan.head_dim, plan.heads)
        scores = self.kernels.gat_scores(x, attention_src, attention_dst,
                                         edges.src, edges.dst, plan.heads,
                                         plan.head_dim)
        return np.where(scores > 0, scores, plan.negative_slope * scores)

    # reprolint: integer-stage
    def attend(self, scores: np.ndarray, edges: AttentionEdges,
               values: np.ndarray) -> np.ndarray:
        """Softmax of the ``(E, heads)`` edge scores per target, then the
        attention-weighted sums of ``values`` per head, ``(num_dst, heads,
        head_dim)``: through Theorem 1's edge-list form when the
        coefficients and ``values`` both carry grids."""
        self.nnz.append(edges.num_edges)
        heads, head_dim = self.layer.heads, self.layer.head_dim
        attention = self.kernels.edge_softmax(scores, edges.dst, edges.num_dst)
        attention_params = self.layer.params("attention")
        x_int, x_params = self.grid(values) if attention_params is not None \
            else (None, None)
        if x_params is not None:
            attention_int = quantize_onto(attention_params, attention)
            scale_e, _ = attention_params.as_scalars()
            scale_x, zero_x = x_params.as_scalars()
            return self.kernels.edge_spmm(attention_int, scale_e,
                                          x_int.reshape(-1, heads, head_dim),
                                          scale_x, zero_x, edges.src,
                                          edges.dst, edges.num_dst)
        attention = self.point("attention", attention)
        per_head = values.reshape(-1, heads, head_dim)
        aggregated = np.zeros((edges.num_dst, heads, head_dim))
        np.add.at(aggregated, edges.dst,
                  attention[:, :, None] * per_head[edges.src])
        return aggregated

    def merge(self, aggregated: np.ndarray,
              bias_of: Optional[str] = None) -> np.ndarray:
        plan = self.layer
        if plan.head_merge == "mean" and plan.heads > 1:
            merged = aggregated.sum(axis=1) * (1.0 / plan.heads)
        else:
            merged = aggregated.reshape(aggregated.shape[0],
                                        plan.heads * plan.head_dim)
        if bias_of is None:
            return merged
        return merged + plan.weights[bias_of].bias

    def relu(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


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
        byte-bounded): repeat requests reuse whole sampled block stacks
        (features are gathered from the graph every time), overlapping
        requests reuse per-seed rows.  A reused stack also reuses the
        operators built on its blocks; the quantized operators live in the
        session's own 16-entry cache, keyed by operator identity.  Cached
        serving is bit-identical to uncached serving.
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
        self.batch_size = int(batch_size)
        self.cache = BlockCache(max_entries=cache_size, max_bytes=cache_bytes) \
            if cache_size > 0 else None
        self.sampler = self._make_sampler(
            graph, fanouts=fanouts, batch_size=self.batch_size,
            num_layers=artifact.total_hops,
            seed_nodes=np.arange(graph.num_nodes, dtype=np.int64),
            shuffle=False, seed=seed, cache=self.cache)

    def _make_sampler(self, graph: Graph, **kwargs) -> NeighborSampler:
        """The session's sampler; a shard worker returns its own subclass."""
        return NeighborSampler(graph, **kwargs)

    def cache_stats(self) -> Optional[CacheStats]:
        """Hit/miss/eviction counters of the block cache (None when off)."""
        return None if self.cache is None else self.cache.stats()

    def apply_update(self, delta: "GraphDelta") -> int:
        """Apply a delta; past the graph's own splice, O(changed rows).

        Ordering matters and is pinned here: the graph mutates first (which
        advances its version and the row versions of the changed rows, so
        their old entries and every batch are unreachable by key), the
        sampler re-derives the degree state of the changed rows only, and
        only then are the stranded entries popped by name — each changed
        row's entries under its pre-update version, and every batch.  Every
        other row entry stays warm: it holds only the raw row, and degree
        terms are applied at block build.
        """
        changed = self.graph.apply_delta(delta).changed_rows()
        self.sampler.refresh_rows(changed)
        if self.cache is not None:
            self.cache.invalidate_nodes(
                changed, versions=self.graph.row_version[changed] - 1)
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
