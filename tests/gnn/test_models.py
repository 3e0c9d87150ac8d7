"""Tests for the FP32 reference architectures (node and graph classifiers)."""

import numpy as np
import pytest

from repro.core.build import build_node_model
from repro.graphs.batch import GraphBatch
from repro.quant.bitops import FP32_BITS
from repro.quant.qmodules import (
    CONV_CLASSES,
    QuantGraphClassifier,
    QuantNodeClassifier,
    gin_component_names,
)
from repro.tensor import functional as F
from repro.optim import Adam


def fp32_graph_classifier(tu_graphs, num_layers=2, **kwargs):
    return QuantGraphClassifier(tu_graphs[0].num_features, 8, 2, {},
                                num_layers=num_layers, **kwargs)


class TestNodeClassifier:
    def test_requires_at_least_one_conv(self):
        with pytest.raises(ValueError):
            QuantNodeClassifier([])

    def test_logit_shape(self, tiny_graph):
        model = build_node_model("gcn", 5, 8, 3, num_layers=2,
                                 rng=np.random.default_rng(0))
        assert model(tiny_graph).shape == (12, 3)

    def test_single_layer_maps_directly_to_classes(self, tiny_graph):
        model = build_node_model("gcn", 5, 8, 3, num_layers=1)
        assert len(model.convs) == 1
        assert model(tiny_graph).shape == (12, 3)

    def test_deeper_models_have_more_layers(self, tiny_graph):
        model = build_node_model("gcn", 5, 8, 3, num_layers=4)
        assert len(model.convs) == 4
        assert model(tiny_graph).shape == (12, 3)

    def test_factory_rejects_unknown_family(self):
        with pytest.raises(KeyError):
            build_node_model("mlpconv", 5, 8, 3)

    @pytest.mark.parametrize("family", sorted(CONV_CLASSES))
    def test_every_family_runs(self, family, tiny_graph):
        model = build_node_model(family, 5, 8, 3, num_layers=2,
                                 rng=np.random.default_rng(0))
        out = model(tiny_graph)
        assert out.shape == (12, 3)
        assert np.isfinite(out.data).all()

    def test_operation_count_grows_with_depth(self, small_cora):
        shallow = build_node_model("gcn", small_cora.num_features, 16,
                                   small_cora.num_classes, num_layers=1)
        deep = build_node_model("gcn", small_cora.num_features, 16,
                                small_cora.num_classes, num_layers=3)
        assert deep.bit_operations(small_cora).total_operations \
            > shallow.bit_operations(small_cora).total_operations

    def test_training_reduces_loss(self, small_cora):
        model = build_node_model("gcn", small_cora.num_features, 16,
                                 small_cora.num_classes, num_layers=2,
                                 rng=np.random.default_rng(0))
        optimizer = Adam(model.parameters(), lr=0.02)
        initial = None
        for step in range(25):
            model.zero_grad()
            loss = F.cross_entropy(model(small_cora), small_cora.y,
                                   mask=small_cora.train_mask)
            if step == 0:
                initial = float(loss.data)
            loss.backward()
            optimizer.step()
        assert float(loss.data) < initial * 0.7

    def test_dropout_only_in_training(self, tiny_graph):
        model = build_node_model("gcn", 5, 8, 3, num_layers=2, dropout=0.9,
                                 rng=np.random.default_rng(0))
        model.eval()
        out_a = model(tiny_graph).data
        out_b = model(tiny_graph).data
        np.testing.assert_allclose(out_a, out_b)


class TestGraphClassifier:
    def test_output_shape(self, tu_graphs):
        batch = GraphBatch(tu_graphs[:6])
        model = fp32_graph_classifier(tu_graphs, num_layers=3,
                                      rng=np.random.default_rng(0))
        assert model(batch).shape == (6, 2)

    def test_pooling_options(self, tu_graphs):
        batch = GraphBatch(tu_graphs[:4])
        for pooling in ("max", "mean", "sum"):
            model = fp32_graph_classifier(tu_graphs, pooling=pooling,
                                          rng=np.random.default_rng(0))
            assert model(batch).shape == (4, 2)

    def test_gradients_flow_through_pooling(self, tu_graphs):
        batch = GraphBatch(tu_graphs[:4])
        model = fp32_graph_classifier(tu_graphs, rng=np.random.default_rng(0))
        loss = F.cross_entropy(model(batch), batch.y)
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert len(grads) > 0

    def test_operation_count(self, tu_graphs):
        batch = GraphBatch(tu_graphs[:4])
        counter = fp32_graph_classifier(tu_graphs).bit_operations(batch)
        assert counter.total_operations > 0

    def test_every_component_at_fp32(self, tu_graphs):
        """An empty assignment leaves the readout head unquantized too."""
        bits = fp32_graph_classifier(tu_graphs).component_bits()
        assert set(bits) == set(gin_component_names(2))
        assert set(bits.values()) == {FP32_BITS}

    def test_per_graph_predictions_independent_of_batching(self, tu_graphs):
        """Predicting a graph alone or inside a batch gives the same logits."""
        model = fp32_graph_classifier(tu_graphs, rng=np.random.default_rng(0))
        model.eval()
        single = model(GraphBatch([tu_graphs[0]])).data[0]
        batched = model(GraphBatch(tu_graphs[:3])).data[0]
        np.testing.assert_allclose(single, batched, rtol=1e-4, atol=1e-5)
