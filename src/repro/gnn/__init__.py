"""Stateless helpers the conv families share.

Edge lists and head merges for attention, the mean and hop operators, and
the hop plan that routes sampled blocks to layers.  The conv families are
the ``Quant*Conv`` layers of :mod:`repro.quant.qmodules`; the FP32 model is
a family built with an empty assignment
(:func:`repro.core.build.build_node_model`).
"""

from repro.gnn.attention import attention_edges, attention_head_dim
from repro.gnn.gat import head_scores, merge_heads
from repro.gnn.models import forward_blocks, head_merge_for_layer, hop_plan, total_hops
from repro.gnn.sage import mean_adjacency
from repro.gnn.tag import hop_views

__all__ = [
    "attention_edges",
    "attention_head_dim",
    "head_scores",
    "merge_heads",
    "forward_blocks",
    "head_merge_for_layer",
    "hop_plan",
    "total_hops",
    "mean_adjacency",
    "hop_views",
]
