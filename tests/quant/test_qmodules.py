"""Tests for the fixed-bit-width quantized GNN modules and BitOPs accounting."""

import numpy as np
import pytest

from repro.quant.bitops import FP32_BITS, BitOpsCounter, OperationRecord, average_bits
from repro.quant.qmodules import (
    QuantGCNConv,
    QuantGINConv,
    QuantGraphClassifier,
    QuantLinear,
    QuantNodeClassifier,
    QuantSAGEConv,
    gcn_component_names,
    gin_component_names,
    sage_component_names,
    uniform_assignment,
)
from repro.core.build import build_node_model
from repro.graphs.batch import GraphBatch
from repro.tensor import Tensor


LAYER_DIMS = [(5, 8), (8, 3)]


class TestComponentNames:
    def test_two_layer_gcn_has_nine_components(self):
        assert len(gcn_component_names(2)) == 9  # the paper's example

    def test_first_layer_has_input_component(self):
        names = gcn_component_names(2)
        assert "conv0.input" in names
        assert "conv1.input" not in names

    def test_sage_and_gin_names(self):
        assert len(sage_component_names(2)) == 6 + 5
        assert "head1.weight" in gin_component_names(3)

    def test_uniform_assignment(self):
        assignment = uniform_assignment(gcn_component_names(2), 4)
        assert set(assignment.values()) == {4}
        assert len(assignment) == 9


class TestQuantLinear:
    def test_forward_shape(self):
        layer = QuantLinear(6, 4, weight_bits=4, output_bits=8,
                            rng=np.random.default_rng(0))
        assert layer(Tensor(np.ones((3, 6), dtype=np.float32))).shape == (3, 4)

    def test_component_bits(self):
        layer = QuantLinear(6, 4, weight_bits=4, output_bits=8)
        bits = layer.component_bits("head")
        assert bits == {"head.weight": 4, "head.output": 8}

    def test_bit_operations_use_max_operand_width(self):
        layer = QuantLinear(6, 4, weight_bits=4, output_bits=8)
        counter, outgoing = layer.bit_operations(10, incoming_bits=8, prefix="head")
        assert outgoing == 8
        assert counter.records[0].bits == 8  # max(incoming 8, weight 4)


@pytest.mark.parametrize("conv_class,components", [
    (QuantGCNConv, QuantGCNConv.components()),
    (QuantGINConv, QuantGINConv.components()),
    (QuantSAGEConv, QuantSAGEConv.components()),
])
class TestQuantConvs:
    def test_forward_shape(self, conv_class, components, tiny_graph):
        bits = {name: 4 for name in components}
        conv = conv_class(5, 6, bits, quantize_input=True, rng=np.random.default_rng(0))
        out = conv(Tensor(tiny_graph.x), tiny_graph)
        assert out.shape == (12, 6)
        assert np.isfinite(out.data).all()

    def test_component_bits_reporting(self, conv_class, components, tiny_graph):
        bits = {name: 8 for name in components}
        conv = conv_class(5, 6, bits, quantize_input=True)
        reported = conv.component_bits("conv0")
        assert all(value == 8 for value in reported.values())
        assert all(key.startswith("conv0.") for key in reported)

    def test_missing_bits_default_to_fp32(self, conv_class, components, tiny_graph):
        conv = conv_class(5, 6, {}, quantize_input=True)
        reported = conv.component_bits("conv0")
        assert all(value == FP32_BITS for value in reported.values())

    def test_gradients_flow(self, conv_class, components, tiny_graph):
        bits = {name: 4 for name in components}
        conv = conv_class(5, 6, bits, quantize_input=True, rng=np.random.default_rng(0))
        conv(Tensor(tiny_graph.x), tiny_graph).sum().backward()
        grads = [p.grad for p in conv.parameters() if p.grad is not None]
        assert grads

    def test_bit_operations_counter(self, conv_class, components, tiny_graph):
        bits = {name: 4 for name in components}
        conv = conv_class(5, 6, bits, quantize_input=True)
        counter, outgoing = conv.bit_operations(tiny_graph, FP32_BITS, "conv0")
        assert counter.total_bit_operations > 0
        assert outgoing <= FP32_BITS


class TestQuantNodeClassifier:
    def test_from_assignment_gcn(self, small_cora):
        assignment = uniform_assignment(gcn_component_names(2), 4)
        model = QuantNodeClassifier.from_assignment(
            [(small_cora.num_features, 8), (8, small_cora.num_classes)], "gcn",
            assignment, rng=np.random.default_rng(0))
        assert model(small_cora).shape == (small_cora.num_nodes, small_cora.num_classes)
        assert model.average_bits() == pytest.approx(4.0)

    def test_unknown_conv_type_rejected(self):
        with pytest.raises(KeyError):
            QuantNodeClassifier.from_assignment(LAYER_DIMS, "chebnet", {})

    def test_lower_bits_fewer_bitops(self, small_cora):
        dims = [(small_cora.num_features, 8), (8, small_cora.num_classes)]
        low = QuantNodeClassifier.from_assignment(
            dims, "gcn", uniform_assignment(gcn_component_names(2), 2))
        high = QuantNodeClassifier.from_assignment(
            dims, "gcn", uniform_assignment(gcn_component_names(2), 8))
        assert low.bit_operations(small_cora).total_bit_operations < \
            high.bit_operations(small_cora).total_bit_operations

    def test_quantized_bitops_below_fp32(self, small_cora):
        dims = [(small_cora.num_features, 8), (8, small_cora.num_classes)]
        model = QuantNodeClassifier.from_assignment(
            dims, "gcn", uniform_assignment(gcn_component_names(2), 8))
        fp32_model = build_node_model("gcn", small_cora.num_features, 8,
                                      small_cora.num_classes)
        fp32_bitops = fp32_model.bit_operations(small_cora).total_bit_operations
        assert model.bit_operations(small_cora).total_bit_operations < fp32_bitops

    def test_mixed_assignment_average(self, small_cora):
        assignment = uniform_assignment(gcn_component_names(2), 2)
        assignment["conv0.weight"] = 8
        dims = [(small_cora.num_features, 8), (8, small_cora.num_classes)]
        model = QuantNodeClassifier.from_assignment(dims, "gcn", assignment)
        assert 2.0 < model.average_bits() < 8.0


class TestQuantGraphClassifier:
    def test_forward_and_bits(self, tu_graphs):
        assignment = uniform_assignment(gin_component_names(3), 4)
        model = QuantGraphClassifier(tu_graphs[0].num_features, 8, 2, assignment,
                                     num_layers=3, rng=np.random.default_rng(0))
        batch = GraphBatch(tu_graphs[:5])
        assert model(batch).shape == (5, 2)
        assert model.average_bits() == pytest.approx(4.0)
        assert model.bit_operations(batch).total_bit_operations > 0


class TestBitOps:
    def test_operation_record(self):
        record = OperationRecord("f", 100, 8)
        assert record.bit_operations == 800

    def test_counter_totals(self):
        counter = BitOpsCounter()
        counter.add("a", 10, 8)
        counter.add("b", 10, 4)
        assert counter.total_operations == 20
        assert counter.total_bit_operations == 120
        assert counter.operation_weighted_bits() == pytest.approx(6.0)

    def test_counter_validation(self):
        counter = BitOpsCounter()
        with pytest.raises(ValueError):
            counter.add("bad", -1, 8)
        with pytest.raises(ValueError):
            counter.add("bad", 1, 0)

    def test_per_function_breakdown(self):
        counter = BitOpsCounter()
        counter.add("transform", 10, 8)
        counter.add("transform", 5, 8)
        counter.add("aggregate", 3, 4)
        breakdown = counter.per_function()
        assert breakdown["transform"] == 120
        assert breakdown["aggregate"] == 12

    def test_giga_conversion(self):
        counter = BitOpsCounter()
        counter.add("x", 10 ** 9, 8)
        assert counter.giga_bit_operations() == pytest.approx(8.0)

    def test_average_bits_helpers(self):
        assert average_bits([2, 4, 8]) == pytest.approx(14 / 3)
        assert average_bits([]) == FP32_BITS
        assert average_bits([2, 8], weights=[3, 1]) == pytest.approx(3.5)
