"""Topology-Adaptive Graph Convolution (Du et al., 2017).

``H' = sum_{k=0..K} \\hat{A}^k H Theta_k`` — a fixed-depth polynomial of the
normalised adjacency.  Used in the Figure 1 layer-family sweep.

Unlike the single-hop convolutions, one TAG layer consumes ``hops``
propagation steps, so in minibatch mode it is fed a *stack* of ``hops``
bipartite :class:`~repro.graphs.sampling.SubgraphBlock` s (its per-layer hop
plan): block ``k`` realises multiplication by ``\\hat{A}`` at hop ``k``, and
because every block's source side starts with its targets — and target
prefixes nest across the stack — the hop-``k`` term restricted to the
layer's final targets is simply ``propagated[:num_final]``.  Samplers must
therefore emit one block *per hop*, not per layer (see
:func:`~repro.gnn.models.hop_plan`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.gnn.message_passing import MessagePassing
from repro.graphs.graph import Graph
from repro.graphs.sampling import SubgraphBlock
from repro.nn.linear import Linear
from repro.nn.module import ModuleList
from repro.tensor.sparse import spmm
from repro.tensor.tensor import Tensor

#: What a TAG layer propagates over: a full graph, or one block per hop.
TAGGraphLike = Union[Graph, SubgraphBlock, Sequence[SubgraphBlock]]


def hop_views(graph: TAGGraphLike, hops: int) -> List:
    """Normalise a TAG layer's input into one graph view per hop.

    A full :class:`Graph` is reused for every hop; a sequence of blocks must
    carry exactly ``hops`` entries (innermost hop first); a bare block is
    accepted only for single-hop layers.
    """
    if isinstance(graph, Graph):
        return [graph] * hops
    if isinstance(graph, SubgraphBlock):
        views: List = [graph]
    else:
        views = list(graph)
    if len(views) != hops:
        raise ValueError(
            f"a TAG layer with hops={hops} needs {hops} blocks per layer, "
            f"got {len(views)}; sampler fanouts must have one entry per hop")
    return views


class TAGConv(MessagePassing):
    """Topology-adaptive graph convolution with ``hops`` adjacency powers."""

    conv_type = "tag"

    def __init__(self, in_features: int, out_features: int, hops: int = 3,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if hops < 1:
            raise ValueError("TAGConv needs at least one hop")
        self.in_features = in_features
        self.out_features = out_features
        self.hops = hops
        self.linears = ModuleList(
            [Linear(in_features, out_features, bias=(k == 0), rng=rng)
             for k in range(hops + 1)])

    def forward(self, x: Tensor, graph: TAGGraphLike) -> Tensor:
        views = hop_views(graph, self.hops)
        last = views[-1]
        num_final = last.num_dst if isinstance(last, SubgraphBlock) else None
        output = self.linears[0](x if num_final is None else x[:num_final])
        propagated = x
        for hop, view in enumerate(views, start=1):
            propagated = spmm(view.normalized_adjacency(), propagated)
            term = propagated if num_final is None else propagated[:num_final]
            output = output + self.linears[hop](term)
        return output

    def __repr__(self) -> str:
        return f"TAGConv({self.in_features} -> {self.out_features}, hops={self.hops})"
