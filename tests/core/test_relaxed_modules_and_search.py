"""Tests for the relaxed layers, Algorithm 1 (build + search) and the MixQ API.

A relaxed layer is a ``Quant*Conv`` built with the mixture quantizer
factory, so every family is one entry of ``CONV_CLASSES``.
"""

import numpy as np
import pytest

from repro.core.build import (
    build_relaxed_graph_classifier,
    build_relaxed_node_classifier,
    layer_dimensions,
)
from repro.core.mixq import MixQGraphClassifier, MixQNodeClassifier
from repro.core.relaxed_quantizer import RelaxedQuantizer, mixture_quantizer_factory
from repro.core.selection import search_graph_bitwidths, search_node_bitwidths
from repro.graphs.batch import GraphBatch
from repro.quant.degree_quant import DegreeQuantizer, degree_quant_factory
from repro.quant.qmodules import CONV_CLASSES, QuantGCNConv, gcn_component_names
from repro.tensor import Tensor

BIT_CHOICES = (2, 4, 8)
FAMILIES = sorted(CONV_CLASSES)


def relaxed_conv(family, in_features, out_features, **kwargs):
    return CONV_CLASSES[family](in_features, out_features, {},
                                quantizer_factory=mixture_quantizer_factory(BIT_CHOICES),
                                rng=np.random.default_rng(0), **kwargs)


class TestRelaxedConvs:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_forward_shape(self, family, tiny_graph):
        conv = relaxed_conv(family, 5, 6, quantize_input=True)
        out = conv(Tensor(tiny_graph.x), tiny_graph)
        assert out.shape == (12, 6)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_component_is_relaxed_and_exports_a_valid_choice(self, family,
                                                                   tiny_graph):
        conv = relaxed_conv(family, 5, 6, quantize_input=True)
        conv(Tensor(tiny_graph.x), tiny_graph)
        exported = conv.component_bits("conv0")
        assert exported
        assert set(exported.values()) <= set(BIT_CHOICES)
        relaxed = [m for m in conv.modules() if isinstance(m, RelaxedQuantizer)]
        # GIN's first MLP output is one extra, un-exported mixture.
        assert len(relaxed) == len(exported) + (family == "gin")

    def test_input_component_only_when_requested(self, tiny_graph):
        conv = relaxed_conv("gcn", 5, 6)
        assert "conv0.input" not in conv.component_bits("conv0")
        assert not isinstance(conv.input_quantizer, RelaxedQuantizer)

    def test_alpha_gradients_flow_from_task_loss(self, tiny_graph):
        conv = relaxed_conv("gcn", 5, 3, quantize_input=True)
        (conv(Tensor(tiny_graph.x), tiny_graph) ** 2).sum().backward()
        assert conv.weight_quantizer.alpha.grad is not None
        assert conv.adjacency_quantizer.alpha.grad is not None

    @pytest.mark.parametrize("family", ["gin", "sage", "tag"])
    def test_adjacency_alpha_gradient_and_numel(self, family, tiny_graph):
        conv = relaxed_conv(family, 5, 3)
        (conv(Tensor(tiny_graph.x), tiny_graph) ** 2).sum().backward()
        assert conv.adjacency_quantizer.alpha.grad is not None
        # the families aggregate over the adjacency with or without self loops
        assert conv.adjacency_quantizer.last_numel in {
            tiny_graph.adjacency(add_self_loops=False).nnz,
            tiny_graph.normalized_adjacency().nnz}

    def test_adjacency_numel_is_nnz(self, tiny_graph):
        conv = relaxed_conv("gcn", 5, 3)
        conv(Tensor(tiny_graph.x), tiny_graph)
        assert conv.adjacency_quantizer.last_numel == \
            tiny_graph.normalized_adjacency().nnz

    def test_fixed_bit_layer_is_the_same_class(self, tiny_graph):
        """QAT and search differ only in the factory, not in the layer."""
        fixed = QuantGCNConv(5, 3, {"weight": 4, "adjacency": 4},
                             rng=np.random.default_rng(0))
        relaxed = relaxed_conv("gcn", 5, 3)
        assert type(fixed) is type(relaxed)
        np.testing.assert_array_equal(fixed.linear.weight.data,
                                      relaxed.linear.weight.data)


class TestBuilders:
    def test_layer_dimensions(self):
        assert layer_dimensions(10, 16, 3, 1) == [(10, 3)]
        assert layer_dimensions(10, 16, 3, 3) == [(10, 16), (16, 16), (16, 3)]
        with pytest.raises(ValueError):
            layer_dimensions(10, 16, 3, 0)

    def test_relaxed_gcn_has_nine_components_for_two_layers(self, tiny_graph):
        model = build_relaxed_node_classifier("gcn", [(5, 8), (8, 3)], BIT_CHOICES,
                                              rng=np.random.default_rng(0))
        model(tiny_graph)
        assignment = model.component_bits()
        assert sorted(assignment) == sorted(gcn_component_names(2))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_exports_its_component_names(self, family, tiny_graph):
        from repro.quant.qmodules import conv_component_names

        model = build_relaxed_node_classifier(family, [(5, 8), (8, 3)], BIT_CHOICES,
                                              hops=2, rng=np.random.default_rng(0))
        assert model(tiny_graph).shape == (12, 3)
        assignment = model.component_bits()
        assert list(assignment) == conv_component_names(family, 2, hops=2)
        assert set(assignment.values()) <= set(BIT_CHOICES)
        assert model.average_bits() == pytest.approx(
            sum(assignment.values()) / len(assignment))

    def test_unknown_conv_type(self):
        with pytest.raises(KeyError):
            build_relaxed_node_classifier("chebnet", [(5, 3)], BIT_CHOICES)

    def test_graph_classifier_builder(self, tu_graphs):
        model = build_relaxed_graph_classifier(tu_graphs[0].num_features, 8, 2,
                                               BIT_CHOICES, num_layers=2,
                                               rng=np.random.default_rng(0))
        batch = GraphBatch(tu_graphs[:4])
        assert model(batch).shape == (4, 2)
        assignment = model.component_bits()
        assert any(key.startswith("head0") for key in assignment)


class TestBitWidthSearch:
    def test_node_search_returns_valid_assignment(self, small_cora):
        model = build_relaxed_node_classifier(
            "gcn", [(small_cora.num_features, 8), (8, small_cora.num_classes)],
            BIT_CHOICES, rng=np.random.default_rng(0))
        result = search_node_bitwidths(model, small_cora, lambda_value=0.1, epochs=8)
        assert set(result.assignment.values()) <= set(BIT_CHOICES)
        assert len(result.loss_history) == 8
        assert 2.0 <= result.average_bits <= 8.0

    def test_large_lambda_compresses_more(self, small_cora):
        dims = [(small_cora.num_features, 8), (8, small_cora.num_classes)]
        results = {}
        for lam in (-1e-8, 5.0):
            model = build_relaxed_node_classifier("gcn", dims, BIT_CHOICES,
                                                  rng=np.random.default_rng(0))
            results[lam] = search_node_bitwidths(model, small_cora, lam, epochs=15)
        assert results[5.0].average_bits <= results[-1e-8].average_bits

    def test_positive_lambda_drives_expected_bits_down(self, small_cora):
        dims = [(small_cora.num_features, 8), (8, small_cora.num_classes)]
        model = build_relaxed_node_classifier("gcn", dims, BIT_CHOICES,
                                              rng=np.random.default_rng(0))
        result = search_node_bitwidths(model, small_cora, lambda_value=50.0, epochs=25)
        assert result.expected_bits_history[-1] < result.expected_bits_history[0]

    def test_decoupled_routing_runs(self, small_cora):
        dims = [(small_cora.num_features, 8), (8, small_cora.num_classes)]
        model = build_relaxed_node_classifier("gcn", dims, BIT_CHOICES,
                                              rng=np.random.default_rng(0))
        result = search_node_bitwidths(model, small_cora, lambda_value=1.0, epochs=5,
                                       penalty_only_alphas=True)
        assert set(result.assignment.values()) <= set(BIT_CHOICES)

    def test_graph_search(self, tu_graphs):
        model = build_relaxed_graph_classifier(tu_graphs[0].num_features, 8, 2,
                                               (4, 8), num_layers=2,
                                               rng=np.random.default_rng(0))
        result = search_graph_bitwidths(model, tu_graphs[:12], lambda_value=0.5,
                                        epochs=2, batch_size=6)
        assert set(result.assignment.values()) <= {4, 8}


class TestMixQAPI:
    def test_fit_pipeline(self, small_cora):
        mixq = MixQNodeClassifier("gcn", small_cora.num_features, 8,
                                  small_cora.num_classes, bit_choices=BIT_CHOICES,
                                  lambda_value=0.1, seed=0)
        result = mixq.fit(small_cora, search_epochs=8, train_epochs=15)
        assert 0.0 <= result.accuracy <= 1.0
        assert 2.0 <= result.average_bits <= 8.0
        assert result.giga_bit_operations > 0
        assert set(result.assignment.values()) <= set(BIT_CHOICES)

    def test_finalize_requires_search(self, small_cora):
        mixq = MixQNodeClassifier("gcn", small_cora.num_features, 8,
                                  small_cora.num_classes)
        with pytest.raises(RuntimeError):
            mixq.finalize()

    def test_evaluate_requires_model(self, small_cora):
        mixq = MixQNodeClassifier("gcn", small_cora.num_features, 8,
                                  small_cora.num_classes)
        with pytest.raises(RuntimeError):
            mixq.evaluate(small_cora)

    def test_explicit_assignment_bypasses_search(self, small_cora):
        from repro.quant.qmodules import uniform_assignment
        assignment = uniform_assignment(gcn_component_names(2), 4)
        mixq = MixQNodeClassifier("gcn", small_cora.num_features, 8,
                                  small_cora.num_classes, seed=0)
        result = mixq.fit(small_cora, train_epochs=10, assignment=assignment)
        assert result.average_bits == pytest.approx(4.0)
        assert result.search is None

    def test_degree_quant_factory_integration(self, small_cora):
        mixq = MixQNodeClassifier("gcn", small_cora.num_features, 8,
                                  small_cora.num_classes, bit_choices=BIT_CHOICES,
                                  lambda_value=0.1, seed=0,
                                  quantizer_factory=degree_quant_factory())
        result = mixq.fit(small_cora, search_epochs=5, train_epochs=10)
        assert any(isinstance(m, DegreeQuantizer)
                   for m in mixq.quantized_model.modules())
        assert 0.0 <= result.accuracy <= 1.0

    def test_graph_classifier_api(self, tu_graphs):
        mixq = MixQGraphClassifier(tu_graphs[0].num_features, 8, 2, num_layers=2,
                                   bit_choices=(4, 8), lambda_value=-1e-8, seed=0)
        result = mixq.fit(tu_graphs[:16], tu_graphs[16:], search_epochs=2,
                          train_epochs=4, batch_size=8)
        assert 0.0 <= result.accuracy <= 1.0
        assert 4.0 <= result.average_bits <= 8.0
