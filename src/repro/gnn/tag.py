"""Hop views of the Topology-Adaptive Graph Convolution (Du et al., 2017).

``H' = sum_{k=0..K} \\hat{A}^k H Theta_k`` — a fixed-depth polynomial of the
normalised adjacency (:class:`~repro.quant.qmodules.QuantTAGConv`).  Used in
the Figure 1 layer-family sweep.

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

from typing import List, Sequence, Union

from repro.graphs.graph import Graph
from repro.graphs.sampling import SubgraphBlock

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
