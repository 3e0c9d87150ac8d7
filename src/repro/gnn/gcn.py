"""Graph Convolutional Network layer (Kipf & Welling, 2017).

Matrix form used by the paper: ``H' = \\hat{A} H \\Theta`` with
``\\hat{A} = D^{-1/2}(I + A)D^{-1/2}``.  The message function is the
learnable linear transformation, aggregation is the normalised-adjacency
product, and the update function is the identity (the non-linearity lives in
the surrounding architecture).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gnn.message_passing import GraphLike, MessagePassing
from repro.nn.linear import Linear
from repro.tensor.sparse import SparseTensor
from repro.tensor.tensor import Tensor


class GCNConv(MessagePassing):
    """One GCN convolution ``\\hat{A} X \\Theta``."""

    conv_type = "gcn"

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.linear = Linear(in_features, out_features, bias=bias, rng=rng)

    def adjacency_for(self, graph: GraphLike) -> SparseTensor:
        # Blocks expose the same accessor with degree-renormalised values.
        return graph.normalized_adjacency()

    def message(self, x: Tensor) -> Tensor:
        return self.linear(x)

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        return self.propagate(graph, x)

    @property
    def has_bias(self) -> bool:
        return self.linear.bias is not None

    def __repr__(self) -> str:
        return f"GCNConv({self.in_features} -> {self.out_features})"
