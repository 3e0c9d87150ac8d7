"""Graph Isomorphism Network layer (Xu et al., 2019).

Matrix form used by the paper: ``H' = MLP((1 + eps) H + A H)``.  The message
function is the identity, aggregation is the unweighted adjacency product,
and the update function adds the scaled root embedding and applies an MLP.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.gnn.message_passing import MessagePassing
from repro.graphs.graph import Graph
from repro.nn.mlp import MLP
from repro.nn.module import Parameter
from repro.tensor.sparse import SparseTensor
from repro.tensor.tensor import Tensor


class GINConv(MessagePassing):
    """One GIN convolution ``MLP((1 + eps) X + A X)``."""

    conv_type = "gin"

    def __init__(self, in_features: int, out_features: int,
                 hidden_features: Optional[int] = None,
                 eps: float = 0.0, train_eps: bool = True,
                 batch_norm: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        hidden = hidden_features if hidden_features is not None else out_features
        self.hidden_features = hidden
        self.mlp = MLP([in_features, hidden, out_features], batch_norm=batch_norm, rng=rng)
        if train_eps:
            self.eps: Parameter | float = Parameter(np.asarray([eps], dtype=np.float32),
                                                    name="eps")
        else:
            self.eps = eps

    def adjacency_for(self, graph: Graph) -> SparseTensor:
        return graph.adjacency(add_self_loops=False)

    def update(self, aggregated: Tensor, x: Tensor) -> Tensor:
        if isinstance(self.eps, Parameter):
            scaled_root = x * (self.eps + 1.0)
        else:
            scaled_root = x * (1.0 + self.eps)
        return self.mlp(scaled_root + aggregated)

    def forward(self, x: Tensor, graph: Graph) -> Tensor:
        return self.propagate(graph, x)

    def __repr__(self) -> str:
        return f"GINConv({self.in_features} -> {self.out_features})"


def gin_architecture_dims(in_features: int, hidden: int, num_layers: int) -> Sequence[int]:
    """Helper returning the feature dimensions of a standard GIN stack."""
    return [in_features, *([hidden] * num_layers)]
