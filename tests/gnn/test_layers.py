"""Tests for the FP32 conv layers: each family built with an empty assignment."""

import numpy as np
import pytest

from repro.gnn.sage import mean_adjacency
from repro.graphs.graph import Graph
from repro.quant.bitops import FP32_BITS
from repro.quant.qmodules import CONV_CLASSES, QuantConv
from repro.quant.quantizer import IdentityQuantizer
from repro.tensor import Tensor


@pytest.fixture
def features(tiny_graph):
    return Tensor(tiny_graph.x)


def fp32_conv(family, fan_in, fan_out, **kwargs):
    """One FP32 layer: a family with no bit-widths assigned."""
    return CONV_CLASSES[family](fan_in, fan_out, {}, rng=np.random.default_rng(0),
                               **kwargs)


def operations(conv, graph):
    counter, _ = conv.bit_operations(graph, FP32_BITS, "conv0")
    return counter.total_operations


class TestFP32Family:
    @pytest.mark.parametrize("family", sorted(CONV_CLASSES))
    def test_every_quantizer_is_identity(self, family):
        """An empty assignment leaves no quantization point active, the
        first layer's input included."""
        conv = fp32_conv(family, 5, 6, quantize_input=True)
        for point in conv.points(conv.hops):
            assert isinstance(conv.quantizer(point.component), IdentityQuantizer)
        assert set(conv.component_bits("conv0").values()) == {FP32_BITS}

    def test_hops_per_family(self):
        """One propagation step per layer, except TAG's per-instance hops."""
        for family in sorted(set(CONV_CLASSES) - {"tag"}):
            assert fp32_conv(family, 5, 6).hops == 1
        assert fp32_conv("tag", 5, 6, hops=2).hops == 2

    def test_base_operator_needs_a_family(self, tiny_graph):
        """The aggregation operator is a property of the six families."""
        with pytest.raises(NotImplementedError):
            QuantConv.operator(tiny_graph)


class TestGCNConv:
    def test_output_shape(self, tiny_graph, features):
        assert fp32_conv("gcn", 5, 8)(features, tiny_graph).shape == (12, 8)

    def test_matches_matrix_formula(self, tiny_graph, features):
        conv = fp32_conv("gcn", 5, 4)
        out = conv(features, tiny_graph)
        adjacency = tiny_graph.normalized_adjacency().to_dense()
        expected = adjacency @ (tiny_graph.x @ conv.linear.weight.data
                                + conv.linear.bias.data)
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)

    def test_gradients_reach_parameters(self, tiny_graph, features):
        conv = fp32_conv("gcn", 5, 3)
        conv(features, tiny_graph).sum().backward()
        assert conv.linear.weight.grad is not None

    def test_isolated_node_keeps_self_information(self):
        """With self loops in the normalisation, isolated nodes keep features."""
        edges = np.asarray([[0, 1], [1, 0]])
        x = np.eye(3, dtype=np.float32)
        graph = Graph(x, edges)
        conv = fp32_conv("gcn", 3, 3, bias=False)
        out = conv(Tensor(x), graph)
        assert np.abs(out.data[2]).sum() > 0

    def test_operation_count_positive(self, tiny_graph):
        assert operations(fp32_conv("gcn", 5, 8), tiny_graph) > 0


class TestGINConv:
    def test_output_shape(self, tiny_graph, features):
        assert fp32_conv("gin", 5, 6)(features, tiny_graph).shape == (12, 6)

    def test_uses_raw_adjacency(self, tiny_graph):
        conv = fp32_conv("gin", 5, 6)
        assert conv.operator(tiny_graph).nnz == tiny_graph.num_edges

    def test_is_gin_zero(self, tiny_graph, features):
        """GIN-0: MLP(x + sum of neighbours), the self term weighted by 1."""
        conv = fp32_conv("gin", 5, 6)
        out = conv(features, tiny_graph)
        adjacency = tiny_graph.adjacency(add_self_loops=False).to_dense()
        combined = tiny_graph.x + adjacency @ tiny_graph.x
        hidden = np.maximum(combined @ conv.mlp_first.weight.data
                            + conv.mlp_first.bias.data, 0.0)
        expected = hidden @ conv.mlp_second.weight.data + conv.mlp_second.bias.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)

    def test_eps_is_not_trained(self, tiny_graph, features):
        conv = fp32_conv("gin", 5, 6)
        conv(features, tiny_graph).sum().backward()
        assert conv.eps == 0.0
        assert not any("eps" in name for name, _ in conv.named_parameters())
        assert all(parameter.grad is not None for parameter in conv.parameters())


class TestSAGEConv:
    def test_output_shape(self, tiny_graph, features):
        assert fp32_conv("sage", 5, 7)(features, tiny_graph).shape == (12, 7)

    def test_mean_adjacency_rows_sum_to_one(self, tiny_graph):
        rows = mean_adjacency(tiny_graph).row_sum()
        connected = tiny_graph.in_degrees() > 0
        np.testing.assert_allclose(rows[connected], np.ones(connected.sum()), rtol=1e-5)

    def test_matches_formula(self, tiny_graph, features):
        conv = fp32_conv("sage", 5, 4)
        conv.eval()
        out = conv(features, tiny_graph)
        aggregated = mean_adjacency(tiny_graph).to_dense() @ tiny_graph.x
        expected = (tiny_graph.x @ conv.linear_root.weight.data + conv.linear_root.bias.data
                    + aggregated @ conv.linear_neighbour.weight.data)
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)

    def test_isolated_node_keeps_only_root_term(self):
        """A node without in-neighbours aggregates nothing."""
        edges = np.asarray([[0, 1], [1, 0]])
        x = np.random.default_rng(3).standard_normal((3, 4)).astype(np.float32)
        graph = Graph(x, edges)
        conv = fp32_conv("sage", 4, 2)
        out = conv(Tensor(x), graph)
        expected = x[2] @ conv.linear_root.weight.data + conv.linear_root.bias.data
        np.testing.assert_allclose(out.data[2], expected, rtol=1e-5, atol=1e-6)


class TestAttentionLayers:
    def test_gat_output_shape(self, tiny_graph, features):
        assert fp32_conv("gat", 5, 6)(features, tiny_graph).shape == (12, 6)

    def test_gat_matches_formula(self, tiny_graph, features):
        """One head: each target's softmax over its neighbours and itself of
        LeakyReLU(a_src·h_j + a_dst·h_i) weights the transformed h_j."""
        conv = fp32_conv("gat", 5, 4)
        out = conv(features, tiny_graph)
        transformed = tiny_graph.x @ conv.linear.weight.data
        score_src = (transformed @ conv.attention_src.data)[:, 0]
        score_dst = (transformed @ conv.attention_dst.data)[:, 0]
        adjacency = tiny_graph.adjacency(add_self_loops=False).to_dense()
        expected = np.zeros_like(transformed)
        for node in range(tiny_graph.num_nodes):
            sources = np.append(np.flatnonzero(adjacency[node]), node)
            scores = score_src[sources] + score_dst[node]
            scores = np.where(scores > 0, scores, 0.2 * scores)
            weights = np.exp(scores - scores.max())
            expected[node] = (weights / weights.sum()) @ transformed[sources]
        expected += conv.bias.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)

    def test_gat_gradients(self, tiny_graph, features):
        conv = fp32_conv("gat", 5, 4)
        conv(features, tiny_graph).sum().backward()
        assert conv.attention_src.grad is not None
        assert conv.linear.weight.grad is not None

    def test_transformer_output_shape(self, tiny_graph, features):
        assert fp32_conv("transformer", 5, 6)(features, tiny_graph).shape == (12, 6)

    def test_attention_layers_operation_counts(self, tiny_graph):
        assert operations(fp32_conv("gat", 5, 6), tiny_graph) > 0
        assert operations(fp32_conv("transformer", 5, 6), tiny_graph) > 0


class TestTAGConv:
    def test_output_shape(self, tiny_graph, features):
        conv = fp32_conv("tag", 5, 6, hops=2)
        assert conv(features, tiny_graph).shape == (12, 6)

    def test_hops_validation(self):
        with pytest.raises(ValueError):
            fp32_conv("tag", 5, 6, hops=0)

    def test_matches_formula(self, tiny_graph, features):
        """Sum over adjacency powers k = 0..K of Â^k x W_k, bias on k = 0."""
        conv = fp32_conv("tag", 5, 4, hops=2)
        out = conv(features, tiny_graph)
        adjacency = tiny_graph.normalized_adjacency().to_dense()
        expected = tiny_graph.x @ conv.linears[0].weight.data + conv.linears[0].bias.data
        propagated = tiny_graph.x
        for hop in (1, 2):
            propagated = adjacency @ propagated
            expected = expected + propagated @ conv.linears[hop].weight.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)

    def test_more_hops_more_operations(self, tiny_graph):
        few = operations(fp32_conv("tag", 5, 6, hops=1), tiny_graph)
        many = operations(fp32_conv("tag", 5, 6, hops=3), tiny_graph)
        assert many > few
