"""Quantized attention convolutions: components, QAT behaviour, head axis.

The fanout=∞ block-vs-full bit-identity contract for the QAT models lives
in the unified parity matrix (``tests/parity_matrix.py``, QAT × direct
rows) — this file keeps the quantization-specific behaviour: component
sets, head-axis plumbing, Degree-Quant alignment and relaxed families.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.build import build_relaxed_node_classifier
from repro.quant.qmodules import (
    QuantGATConv,
    QuantNodeClassifier,
    QuantTAGConv,
    QuantTransformerConv,
    conv_component_names,
    gat_component_names,
    uniform_assignment,
)
from repro.graphs.sampling import NeighborSampler

FAMILIES = ("gat", "tag", "transformer")
HEADED_FAMILIES = ("gat", "transformer")



def _names(conv_type, layers, hops=2):
    return conv_component_names(conv_type, layers, hops=hops)


def _build(conv_type, graph, bits=8, hidden=12, seed=0, heads=1):
    assignment = uniform_assignment(_names(conv_type, 2), bits)
    extra = {"hops": 2} if conv_type == "tag" else {"heads": heads}
    return QuantNodeClassifier.from_assignment(
        [(graph.num_features, hidden), (hidden, graph.num_classes)], conv_type,
        assignment, dropout=0.0, rng=np.random.default_rng(seed), **extra)


class TestComponentNames:
    def test_gat_components(self):
        names = gat_component_names(2)
        assert "conv0.input" in names and "conv1.input" not in names
        assert "conv0.attention" in names and "conv1.attention" in names
        assert "conv1.linear_out" in names

    def test_transformer_components(self):
        names = conv_component_names("transformer", 1)
        assert set(names) == {f"conv0.{c}" for c in QuantTransformerConv.components()}

    def test_tag_components_scale_with_hops(self):
        names = conv_component_names("tag", 1, hops=2)
        assert "conv0.weight_2" in names and "conv0.weight_3" not in names
        assert "conv0.hop_out" in names and "conv0.adjacency" in names

    def test_component_bits_round_trip(self, sbm_graph):
        for family in FAMILIES:
            model = _build(family, sbm_graph, bits=4)
            bits = model.component_bits()
            assert set(bits) == set(_names(family, 2))
            assert all(value == 4 for value in bits.values())
            assert model.average_bits() == pytest.approx(4.0)


class TestQuantForward:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_forward_shapes_and_finiteness(self, sbm_graph, family):
        model = _build(family, sbm_graph)
        logits = model(sbm_graph)
        assert logits.shape == (sbm_graph.num_nodes, sbm_graph.num_classes)
        assert np.isfinite(logits.data).all()

    # fanout=∞ block-vs-full bit-identity: parity-matrix rows (QAT × direct).

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lower_bits_fewer_bitops(self, sbm_graph, family):
        low = _build(family, sbm_graph, bits=4).bit_operations(sbm_graph)
        high = _build(family, sbm_graph, bits=8).bit_operations(sbm_graph)
        assert low.total_bit_operations < high.total_bit_operations

    def test_tag_needs_at_least_one_hop(self):
        with pytest.raises(ValueError):
            QuantTAGConv(4, 4, {}, hops=0)

    def test_gat_attention_quantizer_is_symmetric(self, sbm_graph):
        conv = _build("gat", sbm_graph).convs[0]
        assert isinstance(conv, QuantGATConv)
        assert conv.attention_quantizer.symmetric


class TestMultiHeadQuant:
    @pytest.mark.parametrize("family", HEADED_FAMILIES)
    def test_heads_never_change_the_component_set(self, sbm_graph, family):
        single = _build(family, sbm_graph, bits=4, heads=1)
        multi = _build(family, sbm_graph, bits=4, heads=4, hidden=12)
        assert set(single.component_bits()) == set(multi.component_bits())
        assert multi.average_bits() == pytest.approx(4.0)

    @pytest.mark.parametrize("family", HEADED_FAMILIES)
    def test_multi_head_forward_and_merge_policy(self, sbm_graph, family):
        model = _build(family, sbm_graph, heads=4, hidden=12)
        assert [conv.head_merge for conv in model.convs] == ["concat", "mean"]
        assert model.convs[0].head_dim == 3
        logits = model(sbm_graph)
        assert logits.shape == (sbm_graph.num_nodes, sbm_graph.num_classes)
        assert np.isfinite(logits.data).all()

    @pytest.mark.parametrize("family", HEADED_FAMILIES)
    def test_more_heads_more_bitops(self, sbm_graph, family):
        single = _build(family, sbm_graph, heads=1).bit_operations(sbm_graph)
        multi = _build(family, sbm_graph, heads=4, hidden=12) \
            .bit_operations(sbm_graph)
        assert multi.total_bit_operations > single.total_bit_operations


class TestDegreeQuantAlignment:
    def test_tag_hop_quantizers_see_per_hop_blocks(self, sbm_graph,
                                                   monkeypatch):
        """Hop outputs are row-indexed by each hop view's target side, so
        Degree-Quant protection must be re-aligned per hop — not left on the
        layer's input block."""
        from repro.quant.degree_quant import (
            attach_degree_probabilities,
            degree_quant_factory,
        )

        model = QuantNodeClassifier.from_assignment(
            [(sbm_graph.num_features, 8), (8, sbm_graph.num_classes)], "tag",
            uniform_assignment(_names("tag", 2), 8),
            quantizer_factory=degree_quant_factory(), hops=2, dropout=0.0,
            rng=np.random.default_rng(0))
        attach_degree_probabilities(model, sbm_graph)
        sampler = NeighborSampler(sbm_graph, 3, batch_size=16, num_layers=4,
                                  shuffle=False, seed=0)
        batch = sampler.sample(np.arange(16, dtype=np.int64))

        seen = []
        quantizer = model.convs[0].hop_out_quantizer
        original = quantizer.set_active_block
        monkeypatch.setattr(quantizer, "set_active_block",
                            lambda block: (seen.append(block),
                                           original(block)))
        model(batch)
        # forward_blocks announces the layer's input block, then the conv
        # re-aligns to each of its two hop views, then everything clears
        assert batch.blocks[0] in seen and batch.blocks[1] in seen
        assert seen[-1] is None


class TestRelaxedFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_export_matches_quant_component_names(self, sbm_graph, family):
        relaxed = build_relaxed_node_classifier(
            family, [(sbm_graph.num_features, 8), (8, sbm_graph.num_classes)],
            [4, 8], hops=2, rng=np.random.default_rng(0))
        assignment = relaxed.component_bits()
        expected = _names(family, 2)
        assert set(assignment) == set(expected)
        assert set(assignment.values()) <= {4, 8}
        # the exported assignment instantiates the quantized model directly
        extra = {"hops": 2} if family == "tag" else {}
        model = QuantNodeClassifier.from_assignment(
            [(sbm_graph.num_features, 8), (8, sbm_graph.num_classes)], family,
            assignment, rng=np.random.default_rng(0), **extra)
        assert model.component_bits() == assignment
