"""End-to-end integer inference (Figure 7, stage 5) against the QAT model.

The integer engine is the serving subsystem's full-graph session over an
exported artifact; these are the Theorem-1 parity checks of the GCN path.
"""

import numpy as np
import pytest

from repro.quant.qmodules import (
    QuantNodeClassifier,
    gcn_component_names,
    uniform_assignment,
)
from repro.serving import FullGraphSession, QuantizedArtifact
from repro.training.trainer import evaluate_node_classifier, train_node_classifier


def integer_session(model, graph) -> FullGraphSession:
    return FullGraphSession(QuantizedArtifact.from_model(model), graph)


@pytest.fixture(scope="module")
def trained_int8_model(small_cora):
    assignment = uniform_assignment(gcn_component_names(2), 8)
    model = QuantNodeClassifier.from_assignment(
        [(small_cora.num_features, 16), (16, small_cora.num_classes)], "gcn",
        assignment, dropout=0.0, rng=np.random.default_rng(0))
    train_node_classifier(model, small_cora, epochs=30, lr=0.02)
    model.eval()
    return model


class TestIntegerInference:
    def test_matches_fake_quantized_model(self, trained_int8_model, small_cora):
        """Integer inference reproduces the QAT model's logits (Theorem 1 parity)."""
        integer_logits = integer_session(trained_int8_model, small_cora).predict()
        fake_quant_logits = trained_int8_model(small_cora).data
        np.testing.assert_allclose(integer_logits, fake_quant_logits,
                                   rtol=1e-3, atol=1e-3)

    def test_predictions_match_model_accuracy(self, trained_int8_model, small_cora):
        predictions = integer_session(trained_int8_model, small_cora).predict_classes()
        engine_accuracy = (predictions[small_cora.test_mask]
                           == small_cora.y[small_cora.test_mask]).mean()
        model_accuracy = evaluate_node_classifier(trained_int8_model, small_cora,
                                                  small_cora.test_mask)
        assert engine_accuracy == pytest.approx(model_accuracy, abs=1e-6)

    def test_parity_for_mixed_assignment(self, small_cora):
        """Parity also holds when components use different bit-widths."""
        assignment = uniform_assignment(gcn_component_names(2), 4)
        assignment["conv0.weight"] = 8
        assignment["conv1.adjacency"] = 8
        model = QuantNodeClassifier.from_assignment(
            [(small_cora.num_features, 8), (8, small_cora.num_classes)], "gcn",
            assignment, dropout=0.0, rng=np.random.default_rng(1))
        train_node_classifier(model, small_cora, epochs=15, lr=0.02)
        model.eval()
        np.testing.assert_allclose(integer_session(model, small_cora).predict(),
                                   model(small_cora).data, rtol=2e-3, atol=2e-3)

    def test_bit_operations_match_model_counter(self, trained_int8_model, small_cora):
        engine_counter = integer_session(trained_int8_model, small_cora).bit_operations()
        model_counter = trained_int8_model.bit_operations(small_cora)
        assert engine_counter.total_bit_operations > 0
        # The engine counts the same transform/aggregate work as the QAT model
        # (the model additionally counts the FP32 input width on layer 0).
        ratio = engine_counter.total_bit_operations / model_counter.total_bit_operations
        assert 0.5 <= ratio <= 1.5
