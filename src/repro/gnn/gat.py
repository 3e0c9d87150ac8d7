"""Graph attention layers (Velickovic et al., 2018; UniMP-style transformer).

Multi-head additive / dot-product attention: per-edge coefficients are
computed from the transformed endpoint embeddings — one score column per
head, shape ``(E, H)`` on the canonical edge list — normalised with a
scatter softmax over each node's incoming edges (independently per head),
and used as edge weights for per-head aggregation.  Head outputs merge by
``concat`` (hidden layers; per-head width ``out_features // heads``) or
``mean`` (output layers; per-head width ``out_features``), so the merged
layer width is always ``out_features`` and ``heads`` stays an internal
knob.  ``heads=1`` is bit-identical to the historical single-head layer.

Both layers propagate over a full :class:`~repro.graphs.graph.Graph` or a
bipartite :class:`~repro.graphs.sampling.SubgraphBlock`: scores are computed
directly on the canonical per-edge list (:func:`~repro.gnn.attention
.attention_edges`) and normalised with a scatter softmax over the target
side, so the same code path serves full-batch and neighbor-sampled
minibatch execution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gnn.attention import attention_edges, attention_head_dim
from repro.gnn.message_passing import GraphLike, MessagePassing
from repro.nn import init
from repro.nn.linear import Linear
from repro.nn.module import Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


def head_scores(transformed: Tensor, vectors: Tensor, heads: int,
                head_dim: int) -> Tensor:
    """Per-head score projections ``(N, H)``: column ``h`` is ``X_h @ a_h``.

    ``transformed`` is the ``(N, H * D)`` concatenation of the per-head
    feature slices and ``vectors`` the ``(D, H)`` attention parameters.  The
    single-head case is a plain matmul — multi-head slices each head's
    feature block out first, which for ``heads=1`` degenerates to the same
    product bit-for-bit.
    """
    if heads == 1:
        return transformed.matmul(vectors)
    columns = [transformed[:, h * head_dim:(h + 1) * head_dim]
               .matmul(vectors[:, h:h + 1]) for h in range(heads)]
    return Tensor.concatenate(columns, axis=1)


def merge_heads(aggregated: Tensor, heads: int, head_dim: int,
                head_merge: str) -> Tensor:
    """Merge per-head aggregations ``(N, H, D)`` into ``(N, out_features)``.

    ``concat`` flattens the head axis (a pure reshape); ``mean`` averages
    over it.  ``heads=1`` always takes the reshape path, which is the
    identity on the stored values.
    """
    if head_merge == "mean" and heads > 1:
        return aggregated.mean(axis=1)
    return aggregated.reshape(aggregated.shape[0], heads * head_dim)


class GATConv(MessagePassing):
    """One multi-head GAT convolution (``heads=1`` by default)."""

    conv_type = "gat"

    def __init__(self, in_features: int, out_features: int,
                 negative_slope: float = 0.2, heads: int = 1,
                 head_merge: str = "concat",
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

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        # Attention is computed with self loops appended so every target
        # attends at least to itself; on a block the loop endpoints coincide
        # because sources start with the targets.
        edges = attention_edges(graph)
        transformed = self.linear(x)
        score_src = head_scores(transformed, self.attention_src,
                                self.heads, self.head_dim)
        score_dst = head_scores(transformed, self.attention_dst,
                                self.heads, self.head_dim)
        edge_scores = F.leaky_relu(score_src[edges.src] + score_dst[edges.dst],
                                   negative_slope=self.negative_slope)
        attention = F.scatter_softmax(edge_scores, edges.dst, edges.num_dst)
        per_head = transformed.reshape(-1, self.heads, self.head_dim)
        messages = per_head[edges.src] * attention.reshape(-1, self.heads, 1)
        aggregated = F.segment_sum(messages, edges.dst, edges.num_dst)
        merged = merge_heads(aggregated, self.heads, self.head_dim,
                             self.head_merge)
        return merged + self.bias

    def __repr__(self) -> str:
        return (f"GATConv({self.in_features} -> {self.out_features}, "
                f"heads={self.heads})")


class TransformerConv(MessagePassing):
    """Multi-head dot-product attention convolution (UniMP-style layer).

    Included for the Figure 1 sweep over layer families; identical interface
    to :class:`GATConv` but with scaled dot-product attention scores
    (``1 / sqrt(head_dim)``).
    """

    conv_type = "transformer"

    def __init__(self, in_features: int, out_features: int, heads: int = 1,
                 head_merge: str = "concat",
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

    def forward(self, x: Tensor, graph: GraphLike) -> Tensor:
        edges = attention_edges(graph)
        queries = self.query(x).reshape(-1, self.heads, self.head_dim)
        keys = self.key(x).reshape(-1, self.heads, self.head_dim)
        values = self.value(x).reshape(-1, self.heads, self.head_dim)
        scale = 1.0 / np.sqrt(self.head_dim)
        edge_scores = (queries[edges.dst] * keys[edges.src]).sum(axis=-1) * scale
        attention = F.scatter_softmax(edge_scores, edges.dst, edges.num_dst)
        messages = values[edges.src] * attention.reshape(-1, self.heads, 1)
        aggregated = F.segment_sum(messages, edges.dst, edges.num_dst)
        return merge_heads(aggregated, self.heads, self.head_dim,
                           self.head_merge)

    def __repr__(self) -> str:
        return (f"TransformerConv({self.in_features} -> {self.out_features}, "
                f"heads={self.heads})")
