"""Attention layers on bipartite blocks: head axis, hop plans, block mode.

The fanout=∞ bit-identity contract itself (block execution == full-graph
execution for every conv family × float/QAT/integer × head count) lives in
the unified parity matrix, ``tests/parity_matrix.py`` — this file keeps the
FP32-layer behaviour around it: the canonical edge list, the multi-head
configuration (score columns ``(E, H)``, concat/mean merges, width
accounting), TAG hop plans and minibatch training.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.build import build_node_model
from repro.gnn.attention import attention_edges, attention_head_dim
from repro.gnn.models import hop_plan, total_hops
from repro.gnn.tag import hop_views
from repro.graphs.sampling import NeighborSampler
from repro.quant.bitops import FP32_BITS
from repro.quant.qmodules import QuantGATConv, QuantTAGConv, QuantTransformerConv
from repro.tensor.tensor import Tensor, no_grad
from repro.training.trainer import train_node_classifier, training_sampler

ATTENTION_FAMILIES = ("gat", "transformer", "tag")
HEADED_FAMILIES = ("gat", "transformer")


def _full_batch(graph, num_hops, seed=0):
    """One fanout=∞ batch covering every node, in natural order."""
    sampler = NeighborSampler(graph, None, batch_size=graph.num_nodes,
                              num_layers=num_hops,
                              seed_nodes=np.arange(graph.num_nodes),
                              shuffle=False, seed=seed)
    return sampler.sample(np.arange(graph.num_nodes, dtype=np.int64))


class TestAttentionEdges:
    def test_graph_edges_are_target_grouped_with_loops(self, tiny_graph):
        edges = attention_edges(tiny_graph)
        assert edges.num_src == edges.num_dst == tiny_graph.num_nodes
        assert edges.num_edges == tiny_graph.num_edges + tiny_graph.num_nodes
        # the trailing num_nodes entries are the self loops, in order
        np.testing.assert_array_equal(edges.src[-tiny_graph.num_nodes:],
                                      np.arange(tiny_graph.num_nodes))
        np.testing.assert_array_equal(edges.dst[-tiny_graph.num_nodes:],
                                      np.arange(tiny_graph.num_nodes))

    def test_block_edges_match_graph_at_unlimited_fanout(self, sbm_graph):
        batch = _full_batch(sbm_graph, 1)
        block_edges = attention_edges(batch.blocks[0])
        graph_edges = attention_edges(sbm_graph)
        # seeds are 0..n-1 in order, so local ids equal global ids and the
        # canonical edge lists coincide entirely
        np.testing.assert_array_equal(block_edges.src, graph_edges.src)
        np.testing.assert_array_equal(block_edges.dst, graph_edges.dst)

    def test_edges_are_memoised_per_graph(self, tiny_graph):
        assert attention_edges(tiny_graph) is attention_edges(tiny_graph)


class TestBlockExecution:
    # fanout=∞ bit-identity is a parity-matrix row (tests/parity_matrix.py,
    # float × direct) — here only the fanout-capped behaviours remain.

    @pytest.mark.parametrize("family", ATTENTION_FAMILIES)
    def test_fanout_capped_forward_is_finite(self, sbm_graph, family):
        model = build_node_model(family, sbm_graph.num_features, 8,
                                 sbm_graph.num_classes,
                                 rng=np.random.default_rng(1), dropout=0.0)
        sampler = NeighborSampler(sbm_graph, 3, batch_size=16,
                                  num_layers=total_hops(model.convs),
                                  shuffle=False, seed=2)
        batch = sampler.sample(np.arange(16, dtype=np.int64))
        with no_grad():
            logits = model(batch).data
        assert logits.shape == (16, sbm_graph.num_classes)
        assert np.isfinite(logits).all()

    @pytest.mark.parametrize("family", ATTENTION_FAMILIES)
    def test_minibatch_training_learns(self, sbm_graph, family):
        model = build_node_model(family, sbm_graph.num_features, 16,
                                 sbm_graph.num_classes,
                                 rng=np.random.default_rng(3), dropout=0.0)
        sampler = training_sampler(model, sbm_graph, 4, batch_size=32, seed=0)
        result = train_node_classifier(model, sbm_graph, epochs=5, sampler=sampler)
        assert result.loss_history[-1] < result.loss_history[0]


class TestMultiHeadConfiguration:
    def test_head_dim_concat_splits_width(self):
        assert attention_head_dim(16, 4, "concat") == 4
        assert attention_head_dim(16, 1, "concat") == 16
        assert attention_head_dim(7, 4, "mean") == 7

    def test_concat_rejects_indivisible_width(self):
        with pytest.raises(ValueError, match="divisible"):
            attention_head_dim(7, 4, "concat")
        with pytest.raises(ValueError, match="divisible"):
            QuantGATConv(5, 7, {}, heads=4, rng=np.random.default_rng(0))

    def test_rejects_unknown_merge_and_zero_heads(self):
        with pytest.raises(ValueError, match="head merge"):
            attention_head_dim(8, 2, "sum")
        with pytest.raises(ValueError, match="at least one head"):
            QuantTransformerConv(5, 8, {}, heads=0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("conv_class", [QuantGATConv, QuantTransformerConv])
    @pytest.mark.parametrize("heads,merge", [(2, "concat"), (4, "concat"),
                                             (3, "mean")])
    def test_merged_width_is_always_out_features(self, sbm_graph, conv_class,
                                                 heads, merge):
        conv = conv_class(sbm_graph.num_features, 8, {}, heads=heads,
                          head_merge=merge, rng=np.random.default_rng(0))
        with no_grad():
            out = conv(Tensor(sbm_graph.x), sbm_graph)
        assert out.shape == (sbm_graph.num_nodes, 8)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("family", HEADED_FAMILIES)
    def test_builder_merges_hidden_concat_output_mean(self, sbm_graph, family):
        model = build_node_model(family, sbm_graph.num_features, 16,
                                 sbm_graph.num_classes, num_layers=3, heads=4,
                                 rng=np.random.default_rng(0), dropout=0.0)
        assert [conv.head_merge for conv in model.convs] \
            == ["concat", "concat", "mean"]
        assert [conv.head_dim for conv in model.convs] \
            == [4, 4, sbm_graph.num_classes]

    @pytest.mark.parametrize("family", HEADED_FAMILIES)
    def test_multi_head_minibatch_training_learns(self, sbm_graph, family):
        model = build_node_model(family, sbm_graph.num_features, 16,
                                 sbm_graph.num_classes, heads=2,
                                 rng=np.random.default_rng(3), dropout=0.0)
        sampler = training_sampler(model, sbm_graph, 4, batch_size=32, seed=0)
        result = train_node_classifier(model, sbm_graph, epochs=5, sampler=sampler)
        assert result.loss_history[-1] < result.loss_history[0]

    def test_operation_count_grows_with_heads_under_mean(self, sbm_graph):
        single = QuantGATConv(sbm_graph.num_features, 8, {}, heads=1,
                              rng=np.random.default_rng(0))
        multi = QuantGATConv(sbm_graph.num_features, 8, {}, heads=4,
                             head_merge="mean", rng=np.random.default_rng(0))

        def operations(conv):
            counter, _ = conv.bit_operations(sbm_graph, FP32_BITS, "conv0")
            return counter.total_operations

        assert operations(multi) > operations(single)


class TestHopPlans:
    def test_hop_plan_counts_tag_hops(self, sbm_graph):
        model = build_node_model("tag", sbm_graph.num_features, 8,
                                 sbm_graph.num_classes,
                                 rng=np.random.default_rng(0))
        assert hop_plan(model.convs) == [3, 3]
        assert total_hops(model.convs) == 6

    def test_tag_rejects_wrong_block_count(self, sbm_graph):
        conv = QuantTAGConv(sbm_graph.num_features, 4, {}, hops=2,
                            rng=np.random.default_rng(0))
        batch = _full_batch(sbm_graph, 1)
        with pytest.raises(ValueError, match="hops=2"):
            conv(Tensor(batch.x), batch.blocks)

    def test_hop_views_accepts_single_block_for_one_hop(self, sbm_graph):
        batch = _full_batch(sbm_graph, 1)
        views = hop_views(batch.blocks[0], 1)
        assert views == [batch.blocks[0]]

    def test_forward_blocks_rejects_mismatched_stack(self, sbm_graph):
        model = build_node_model("tag", sbm_graph.num_features, 8,
                                 sbm_graph.num_classes,
                                 rng=np.random.default_rng(0))
        batch = _full_batch(sbm_graph, 2)  # needs 6 blocks, give 2
        with pytest.raises(ValueError, match="one entry per hop"):
            model(batch)

    def test_trainer_sizes_sampler_by_hops(self, sbm_graph):
        model = build_node_model("tag", sbm_graph.num_features, 8,
                                 sbm_graph.num_classes,
                                 rng=np.random.default_rng(0), dropout=0.0)
        sampler = training_sampler(model, sbm_graph, 3, batch_size=16, seed=0)
        assert len(sampler.fanouts) == 6
