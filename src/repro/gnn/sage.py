"""Mean aggregation of GraphSAGE (Hamilton et al., 2017).

Matrix form used by the paper:
``H' = sigma(Theta_1 H + Theta_2 (A_mean H))`` where ``A_mean`` is the
row-normalised (mean) adjacency that
:class:`~repro.quant.qmodules.QuantSAGEConv` aggregates with.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.models import GraphLike
from repro.tensor.sparse import SparseTensor


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
