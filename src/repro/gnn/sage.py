"""GraphSAGE layer (Hamilton et al., 2017).

Matrix form used by the paper:
``H' = sigma(Theta_1 H + Theta_2 (A_mean H))`` where ``A_mean`` is the
row-normalised (mean) adjacency.  The paper's GraphSAGE case study
(Section 5.3.2) additionally uses neighbour sampling to cap node in-degree,
which :meth:`sample_adjacency` reproduces.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.gnn.message_passing import GraphLike, MessagePassing
from repro.graphs.graph import Graph
from repro.graphs.sampling import SubgraphBlock, target_features
from repro.nn.linear import Linear
from repro.tensor.sparse import SparseTensor
from repro.tensor.tensor import Tensor


def mean_adjacency(graph: GraphLike) -> SparseTensor:
    """Row-normalised adjacency ``D^{-1} A`` (mean aggregation).

    Accepts a full graph or a bipartite block; on a block the division is by
    the *sampled* degree, which is exactly the degree renormalisation the
    fanout-capped minibatch engine needs.
    """
    adjacency = graph.adjacency(add_self_loops=False)
    degree = adjacency.row_sum()
    inverse = np.zeros_like(degree)
    positive = degree > 0
    inverse[positive] = 1.0 / degree[positive]
    coo = adjacency.csr.tocoo()
    return adjacency.with_values(inverse[coo.row] * coo.data)


def sample_adjacency(graph: Graph, max_neighbours: int,
                     rng: np.random.Generator) -> SparseTensor:
    """Neighbour-sampled mean adjacency: keep at most ``max_neighbours`` per row.

    This is GraphSAGE's node sampling, which the paper uses to bound node
    in-degree and therefore the magnitude of aggregated values (Section 5.3.2).
    """
    adjacency = graph.adjacency(add_self_loops=False).csr
    indptr = adjacency.indptr
    indices = adjacency.indices
    rows, cols, values = [], [], []
    for row in range(graph.num_nodes):
        neighbours = indices[indptr[row]:indptr[row + 1]]
        if neighbours.size == 0:
            continue
        if neighbours.size > max_neighbours:
            neighbours = rng.choice(neighbours, size=max_neighbours, replace=False)
        weight = 1.0 / neighbours.size
        rows.extend([row] * neighbours.size)
        cols.extend(neighbours.tolist())
        values.extend([weight] * neighbours.size)
    matrix = sp.csr_matrix((np.asarray(values, dtype=np.float32), (rows, cols)),
                           shape=(graph.num_nodes, graph.num_nodes))
    return SparseTensor(matrix)


class SAGEConv(MessagePassing):
    """One GraphSAGE convolution with mean aggregation."""

    conv_type = "sage"

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 max_neighbours: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.max_neighbours = max_neighbours
        self.linear_root = Linear(in_features, out_features, bias=bias, rng=rng)
        self.linear_neighbour = Linear(in_features, out_features, bias=False, rng=rng)
        self._sampling_rng = rng if rng is not None else np.random.default_rng(0)

    def adjacency_for(self, graph: GraphLike) -> SparseTensor:
        if isinstance(graph, SubgraphBlock):
            # Blocks arrive pre-sampled by the NeighborSampler.
            return mean_adjacency(graph)
        if self.max_neighbours is not None and self.training:
            return sample_adjacency(graph, self.max_neighbours, self._sampling_rng)
        return mean_adjacency(graph)

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        adjacency = self.adjacency_for(graph)
        aggregated = self.aggregate(adjacency, x)
        return self.linear_root(target_features(x, graph)) \
            + self.linear_neighbour(aggregated)

    @property
    def has_bias(self) -> bool:
        return self.linear_root.bias is not None

    def __repr__(self) -> str:
        return f"SAGEConv({self.in_features} -> {self.out_features})"
