"""The :class:`Graph` data object.

A graph carries node features ``x``, an ``edge_index`` of shape
``(2, num_edges)`` with optional ``edge_weight``, labels ``y`` (per node or
per graph), and optional boolean masks for transductive node classification.
The normalised adjacency used by GCN-style layers is built lazily and cached.

Graphs are mutable through the streaming update API only: ``add_edges`` /
``remove_edges`` / ``update_features`` wrap their arguments into an atomic
:class:`~repro.streaming.GraphDelta` and route through :meth:`Graph.
apply_delta`, which validates everything before touching any array, bumps
the monotone :attr:`Graph.version` counter and the per-node
:attr:`Graph.row_version` of every changed adjacency row, and refreshes the
cached
adjacency *incrementally* (only the changed rows are respliced — see
:meth:`~repro.tensor.sparse.SparseTensor.with_rows`).  A mutated graph is
indistinguishable from a fresh ``Graph`` built on the edited edge list,
bit for bit, which is what the streaming parity tests assert.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.tensor.sparse import SparseTensor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (deltas are applied here)
    from repro.streaming.delta import GraphDelta


def _edges_leaving(edge_index: np.ndarray, sources: np.ndarray,
                   num_nodes: int) -> np.ndarray:
    """Positions of the edges whose source is one of ``sources``: one
    flag lookup per edge, which for the few nodes a delta names is several
    times cheaper than a sorted or hashed membership test on the list."""
    is_source = np.zeros(num_nodes, dtype=bool)
    is_source[sources] = True
    return np.flatnonzero(is_source[edge_index[0]])


class Graph:
    """A single attributed graph.

    Parameters
    ----------
    x:
        Node feature matrix of shape ``(num_nodes, num_features)``.
    edge_index:
        ``(2, num_edges)`` integer array of directed edges ``source -> target``.
        Undirected graphs store both directions.
    y:
        Either a length ``num_nodes`` label vector (node classification) or a
        scalar / small vector (graph classification).
    edge_weight:
        Optional per-edge weights (defaults to 1).
    train_mask / val_mask / test_mask:
        Boolean node masks for transductive tasks.
    """

    def __init__(self, x: np.ndarray, edge_index: np.ndarray,
                 y: Optional[np.ndarray] = None,
                 edge_weight: Optional[np.ndarray] = None,
                 train_mask: Optional[np.ndarray] = None,
                 val_mask: Optional[np.ndarray] = None,
                 test_mask: Optional[np.ndarray] = None,
                 name: str = "graph"):
        self.x = np.asarray(x, dtype=np.float32)
        self.edge_index = np.asarray(edge_index, dtype=np.int64)
        if self.edge_index.ndim != 2 or self.edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, num_edges)")
        self.y = None if y is None else np.asarray(y)
        if edge_weight is None:
            edge_weight = np.ones(self.edge_index.shape[1], dtype=np.float32)
        self.edge_weight = np.asarray(edge_weight, dtype=np.float32)
        self.train_mask = None if train_mask is None else np.asarray(train_mask, dtype=bool)
        self.val_mask = None if val_mask is None else np.asarray(val_mask, dtype=bool)
        self.test_mask = None if test_mask is None else np.asarray(test_mask, dtype=bool)
        self.name = name
        #: Monotone update counter: number of deltas applied to this
        #: instance (a freshly built graph is version 0).
        self.version = 0
        #: Per-node count of deltas that changed the node's adjacency row
        #: (its out-edges); cached row entries are keyed by it.
        self.row_version = np.zeros(self.num_nodes, dtype=np.int64)
        self._cache: Dict[str, SparseTensor] = {}

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return int(self.x.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])

    @property
    def num_features(self) -> int:
        return int(self.x.shape[1])

    @property
    def num_classes(self) -> int:
        if self.y is None:
            raise ValueError("graph has no labels")
        if self.y.ndim > 1:
            return int(self.y.shape[1])
        return int(self.y.max()) + 1

    # ------------------------------------------------------------------ #
    def adjacency(self, add_self_loops: bool = False) -> SparseTensor:
        """Raw (weighted) adjacency matrix, optionally with self loops added."""
        key = f"adj_{add_self_loops}"
        if key not in self._cache:
            adjacency = SparseTensor.from_edge_index(
                self.edge_index, self.num_nodes, self.edge_weight)
            if add_self_loops:
                adjacency = SparseTensor(adjacency.csr + SparseTensor.identity(self.num_nodes).csr)
            self._cache[key] = adjacency
        return self._cache[key]

    def normalized_adjacency(self) -> SparseTensor:
        r"""GCN-normalised adjacency :math:`\hat A = D^{-1/2}(I + A)D^{-1/2}`."""
        if "gcn_norm" not in self._cache:
            adjacency = self.adjacency(add_self_loops=True)
            degree = adjacency.row_sum()
            inv_sqrt = np.zeros_like(degree)
            positive = degree > 0
            inv_sqrt[positive] = 1.0 / np.sqrt(degree[positive])
            # ``tocoo`` on a CSR matrix preserves the CSR data ordering, so the
            # rescaled values can be written straight back into the pattern.
            coo = adjacency.csr.tocoo()
            values = inv_sqrt[coo.row] * coo.data * inv_sqrt[coo.col]
            self._cache["gcn_norm"] = adjacency.with_values(values)
        return self._cache["gcn_norm"]

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node (number of incoming edges)."""
        return np.bincount(self.edge_index[1], minlength=self.num_nodes)

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_index[0], minlength=self.num_nodes)

    # ------------------------------------------------------------------ #
    # Streaming update API.
    def apply_delta(self, delta: "GraphDelta") -> "GraphDelta":
        """Apply one atomic :class:`~repro.streaming.GraphDelta`.

        The whole delta is validated before any array is touched, so a
        rejected delta leaves the graph (and its versions) unchanged.  On
        success :attr:`version` advances by exactly one, the
        :attr:`row_version` of every row in ``delta.changed_rows()`` by one,
        and the cached raw adjacency is respliced incrementally: only those
        rows are rebuilt (see
        :meth:`~repro.tensor.sparse.SparseTensor.with_rows`); derived
        caches (self-loop adjacency, GCN normalisation) are dropped.

        Returns the normalised delta (arrays coerced to canonical dtypes),
        whose ``changed_rows()`` callers hand to cache eviction.
        """
        from repro.streaming.delta import GraphDelta

        if not isinstance(delta, GraphDelta):
            raise TypeError(f"expected a GraphDelta, got {type(delta).__name__}")
        num_nodes = self.num_nodes
        touched = delta.touched_nodes()
        if touched.size and (touched.min() < 0 or touched.max() >= num_nodes):
            raise ValueError(
                f"delta names node ids outside [0, {num_nodes}): "
                f"range [{touched.min()}, {touched.max()}]")
        if delta.features is not None \
                and delta.features.shape[1] != self.num_features:
            raise ValueError(
                f"feature rows must have width {self.num_features}, "
                f"got {delta.features.shape[1]}")
        # Only the edges leaving a removed pair's source can match it, so
        # pair codes are compared on those few and the full edge list is
        # read once; only locals change until every pair was found, so
        # absence rejects atomically.
        edge_index = self.edge_index
        edge_weight = self.edge_weight
        if delta.removed_edges is not None:
            candidates = _edges_leaving(edge_index, delta.removed_edges[0],
                                        num_nodes)
            codes = edge_index[0, candidates] * num_nodes \
                + edge_index[1, candidates]
            removed_codes = np.unique(
                delta.removed_edges[0] * num_nodes + delta.removed_edges[1])
            drop = np.isin(codes, removed_codes)
            missing = np.setdiff1d(removed_codes, codes[drop])
            if missing.size:
                raise ValueError(
                    f"cannot remove absent edge "
                    f"({missing[0] // num_nodes}, {missing[0] % num_nodes})")
            keep = np.ones(edge_index.shape[1], dtype=bool)
            keep[candidates[drop]] = False
            # (``edge_index[:, keep]`` reads the same columns 4x slower.)
            edge_index = np.compress(keep, edge_index, axis=1)
            edge_weight = edge_weight[keep]
        if delta.added_edges is not None:
            weights = delta.added_weights
            if weights is None:
                weights = np.ones(delta.added_edges.shape[1], dtype=np.float32)
            edge_index = np.concatenate([edge_index, delta.added_edges], axis=1)
            edge_weight = np.concatenate([edge_weight, weights])
        self.edge_index = edge_index
        self.edge_weight = edge_weight
        if delta.feature_nodes is not None:
            self.x[delta.feature_nodes] = delta.features
        changed = delta.changed_rows()
        self.version += 1
        self.row_version[changed] += 1

        cached = self._cache.get("adj_False")
        self._cache.clear()
        if cached is not None and changed.size:
            leaving = _edges_leaving(edge_index, changed, num_nodes)
            local = np.searchsorted(changed, edge_index[0, leaving])
            replacement = SparseTensor(sp.csr_matrix(
                (edge_weight[leaving], (local, edge_index[1, leaving])),
                shape=(changed.shape[0], num_nodes)))
            self._cache["adj_False"] = cached.with_rows(changed, replacement)
        elif cached is not None:
            self._cache["adj_False"] = cached
        return delta

    def add_edges(self, edges: np.ndarray,
                  weights: Optional[np.ndarray] = None) -> "GraphDelta":
        """Append directed edges (``(2, E)``) as one atomic delta."""
        from repro.streaming.delta import GraphDelta

        return self.apply_delta(GraphDelta(added_edges=edges,
                                           added_weights=weights))

    def remove_edges(self, edges: np.ndarray) -> "GraphDelta":
        """Remove every occurrence of the given directed edges atomically."""
        from repro.streaming.delta import GraphDelta

        return self.apply_delta(GraphDelta(removed_edges=edges))

    def update_features(self, nodes: np.ndarray,
                        rows: np.ndarray) -> "GraphDelta":
        """Overwrite whole feature rows as one atomic delta."""
        from repro.streaming.delta import GraphDelta

        return self.apply_delta(GraphDelta(feature_nodes=nodes, features=rows))

    def copy(self) -> "Graph":
        return Graph(self.x.copy(), self.edge_index.copy(),
                     y=None if self.y is None else self.y.copy(),
                     edge_weight=self.edge_weight.copy(),
                     train_mask=None if self.train_mask is None else self.train_mask.copy(),
                     val_mask=None if self.val_mask is None else self.val_mask.copy(),
                     test_mask=None if self.test_mask is None else self.test_mask.copy(),
                     name=self.name)

    def __repr__(self) -> str:
        return (f"Graph(name={self.name!r}, nodes={self.num_nodes}, "
                f"edges={self.num_edges}, features={self.num_features})")
