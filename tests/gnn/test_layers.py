"""Tests for the GNN convolution layers and the MessagePassing base class."""

import numpy as np
import pytest

from repro.gnn import GATConv, GCNConv, GINConv, SAGEConv, TAGConv
from repro.gnn.gat import TransformerConv
from repro.gnn.message_passing import MessagePassing
from repro.gnn.sage import mean_adjacency, sample_adjacency
from repro.tensor import Tensor


@pytest.fixture
def features(tiny_graph):
    return Tensor(tiny_graph.x)


class TestMessagePassingBase:
    def test_default_propagate_is_adjacency_product(self, tiny_graph, features):
        layer = MessagePassing()
        out = layer(features, tiny_graph)
        expected = tiny_graph.adjacency().csr @ tiny_graph.x
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_operation_count_needs_a_family(self, tiny_graph):
        """Cost is a property of the six families; the bare base has none."""
        with pytest.raises(KeyError):
            MessagePassing().operation_count(tiny_graph)


class TestGCNConv:
    def test_output_shape(self, tiny_graph, features):
        conv = GCNConv(5, 8, rng=np.random.default_rng(0))
        assert conv(features, tiny_graph).shape == (12, 8)

    def test_matches_matrix_formula(self, tiny_graph, features):
        conv = GCNConv(5, 4, rng=np.random.default_rng(0))
        out = conv(features, tiny_graph)
        adjacency = tiny_graph.normalized_adjacency().to_dense()
        expected = adjacency @ (tiny_graph.x @ conv.linear.weight.data
                                + conv.linear.bias.data)
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)

    def test_gradients_reach_parameters(self, tiny_graph, features):
        conv = GCNConv(5, 3, rng=np.random.default_rng(0))
        conv(features, tiny_graph).sum().backward()
        assert conv.linear.weight.grad is not None

    def test_isolated_node_keeps_self_information(self):
        """With self loops in the normalisation, isolated nodes keep features."""
        from repro.graphs.graph import Graph
        edges = np.asarray([[0, 1], [1, 0]])
        x = np.eye(3, dtype=np.float32)
        graph = Graph(x, edges)
        conv = GCNConv(3, 3, bias=False, rng=np.random.default_rng(0))
        out = conv(Tensor(x), graph)
        assert np.abs(out.data[2]).sum() > 0

    def test_operation_count_positive(self, tiny_graph):
        conv = GCNConv(5, 8)
        assert conv.operation_count(tiny_graph) > 0


class TestGINConv:
    def test_output_shape(self, tiny_graph, features):
        conv = GINConv(5, 6, rng=np.random.default_rng(0))
        assert conv(features, tiny_graph).shape == (12, 6)

    def test_uses_raw_adjacency(self, tiny_graph):
        conv = GINConv(5, 6)
        assert conv.adjacency_for(tiny_graph).nnz == tiny_graph.num_edges

    def test_eps_changes_output(self, tiny_graph, features):
        conv = GINConv(5, 6, eps=0.0, train_eps=False, batch_norm=False,
                       rng=np.random.default_rng(0))
        conv_eps = GINConv(5, 6, eps=2.0, train_eps=False, batch_norm=False,
                           rng=np.random.default_rng(0))
        out_a = conv(features, tiny_graph).data
        out_b = conv_eps(features, tiny_graph).data
        assert not np.allclose(out_a, out_b)

    def test_learnable_eps_receives_gradient(self, tiny_graph, features):
        conv = GINConv(5, 6, train_eps=True, batch_norm=False, rng=np.random.default_rng(0))
        conv(features, tiny_graph).sum().backward()
        assert conv.eps.grad is not None


class TestSAGEConv:
    def test_output_shape(self, tiny_graph, features):
        conv = SAGEConv(5, 7, rng=np.random.default_rng(0))
        assert conv(features, tiny_graph).shape == (12, 7)

    def test_mean_adjacency_rows_sum_to_one(self, tiny_graph):
        rows = mean_adjacency(tiny_graph).row_sum()
        connected = tiny_graph.in_degrees() > 0
        np.testing.assert_allclose(rows[connected], np.ones(connected.sum()), rtol=1e-5)

    def test_sample_adjacency_caps_neighbours(self, sbm_graph):
        sampled = sample_adjacency(sbm_graph, max_neighbours=3,
                                   rng=np.random.default_rng(0))
        per_row = np.diff(sampled.csr.indptr)
        assert per_row.max() <= 3

    def test_neighbour_sampling_only_in_training(self, tiny_graph, features):
        conv = SAGEConv(5, 4, max_neighbours=1, rng=np.random.default_rng(0))
        conv.eval()
        out_a = conv(features, tiny_graph).data
        out_b = conv(features, tiny_graph).data
        np.testing.assert_allclose(out_a, out_b)

    def test_matches_formula(self, tiny_graph, features):
        conv = SAGEConv(5, 4, rng=np.random.default_rng(0))
        conv.eval()
        out = conv(features, tiny_graph)
        aggregated = mean_adjacency(tiny_graph).to_dense() @ tiny_graph.x
        expected = (tiny_graph.x @ conv.linear_root.weight.data + conv.linear_root.bias.data
                    + aggregated @ conv.linear_neighbour.weight.data)
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)


class TestAttentionLayers:
    def test_gat_output_shape(self, tiny_graph, features):
        conv = GATConv(5, 6, rng=np.random.default_rng(0))
        assert conv(features, tiny_graph).shape == (12, 6)

    def test_gat_gradients(self, tiny_graph, features):
        conv = GATConv(5, 4, rng=np.random.default_rng(0))
        conv(features, tiny_graph).sum().backward()
        assert conv.attention_src.grad is not None
        assert conv.linear.weight.grad is not None

    def test_transformer_output_shape(self, tiny_graph, features):
        conv = TransformerConv(5, 6, rng=np.random.default_rng(0))
        assert conv(features, tiny_graph).shape == (12, 6)

    def test_attention_layers_operation_counts(self, tiny_graph):
        assert GATConv(5, 6).operation_count(tiny_graph) > 0
        assert TransformerConv(5, 6).operation_count(tiny_graph) > 0


class TestTAGConv:
    def test_output_shape(self, tiny_graph, features):
        conv = TAGConv(5, 6, hops=2, rng=np.random.default_rng(0))
        assert conv(features, tiny_graph).shape == (12, 6)

    def test_hops_validation(self):
        with pytest.raises(ValueError):
            TAGConv(5, 6, hops=0)

    def test_more_hops_more_operations(self, tiny_graph):
        few = TAGConv(5, 6, hops=1).operation_count(tiny_graph)
        many = TAGConv(5, 6, hops=3).operation_count(tiny_graph)
        assert many > few
