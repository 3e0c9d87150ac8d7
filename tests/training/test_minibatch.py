"""MinibatchTrainer: full-batch equivalence, sampled training, exact eval."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.build import build_node_model
from repro.core.mixq import MixQNodeClassifier
from repro.graphs.datasets.synthetic import SBMConfig, generate_sbm_graph
from repro.quant.qmodules import (
    QuantNodeClassifier,
    gcn_component_names,
    uniform_assignment,
)
from repro.core.build import layer_dimensions
from repro.training.minibatch import MinibatchTrainer, layerwise_inference
from repro.training.trainer import evaluate_node_classifier, train_node_classifier


@pytest.fixture(scope="module")
def graph():
    config = SBMConfig(num_nodes=200, num_classes=4, num_features=32,
                       average_degree=5.0, name="minibatch-test")
    return generate_sbm_graph(config, seed=5)


def _fresh_model(graph, conv_type, seed=0, dropout=0.5):
    return build_node_model(conv_type, graph.num_features, 16, graph.num_classes,
                            rng=np.random.default_rng(seed), dropout=dropout)


# --------------------------------------------------------------------------- #
# exactness: unlimited fanout + one batch == full-batch training
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("conv_type", ["gcn", "sage"])
def test_unlimited_fanout_matches_full_batch_loss(graph, conv_type):
    full_model = _fresh_model(graph, conv_type, dropout=0.0)
    mini_model = _fresh_model(graph, conv_type, dropout=0.0)

    full = train_node_classifier(full_model, graph, epochs=6)
    trainer = MinibatchTrainer(mini_model, fanouts=None,
                               batch_size=graph.num_nodes, shuffle=False)
    mini = trainer.fit(graph, epochs=6)

    np.testing.assert_allclose(mini.loss_history, full.loss_history, atol=1e-5)
    assert mini.test_accuracy == pytest.approx(full.test_accuracy, abs=1e-6)


# --------------------------------------------------------------------------- #
# sampled training
# --------------------------------------------------------------------------- #
def test_fanout_capped_training_learns(graph):
    model = _fresh_model(graph, "sage", seed=1)
    result = MinibatchTrainer(model, fanouts=5, batch_size=32,
                              seed=2).fit(graph, epochs=12)
    assert len(result.loss_history) == 12
    # Above chance on 4 classes.
    assert result.test_accuracy > 0.4
    # The loss actually decreased.
    assert result.loss_history[-1] < result.loss_history[0]

def test_minibatch_trains_qat_model(graph):
    dims = layer_dimensions(graph.num_features, 16, graph.num_classes, 2)
    model = QuantNodeClassifier.from_assignment(
        dims, "gcn", uniform_assignment(gcn_component_names(2), 8),
        rng=np.random.default_rng(0))
    result = MinibatchTrainer(model, fanouts=5, batch_size=32,
                              seed=3).fit(graph, epochs=8)
    assert result.test_accuracy > 0.4


def test_minibatch_mixq_pipeline(graph):
    mixq = MixQNodeClassifier("gcn", graph.num_features, 16, graph.num_classes,
                              bit_choices=(4, 8), lambda_value=0.1, seed=0)
    result = mixq.fit(graph, search_epochs=3, train_epochs=4,
                      minibatch=True, fanout=5, batch_size=48)
    assert result.assignment
    assert 4.0 <= result.average_bits <= 8.0
    assert np.isfinite(result.accuracy)


def test_degree_quant_protection_aligns_with_block_ids(graph):
    from repro.graphs.sampling import NeighborSampler
    from repro.quant.degree_quant import DegreeQuantizer
    from repro.tensor.tensor import Tensor

    quantizer = DegreeQuantizer(bits=2, rng=np.random.default_rng(0))
    quantizer.set_probabilities(np.ones(graph.num_nodes))
    quantizer.train()
    block = next(iter(NeighborSampler(graph, [3], batch_size=16, seed=0))).blocks[0]
    x = Tensor(np.random.default_rng(1).standard_normal(
        (block.num_src, 4)).astype(np.float32))

    # Without block context the per-node probabilities cannot be aligned with
    # block-local rows, so plain 2-bit quantization applies.
    assert not np.allclose(quantizer(x).data, x.data)
    # With the block announced, probability-1 protection keeps every row FP32.
    quantizer.set_active_block(block)
    np.testing.assert_allclose(quantizer(x).data, x.data)
    quantizer.set_active_block(None)


def test_forward_blocks_routes_blocks_to_degree_quant(graph):
    from repro.graphs.sampling import NeighborSampler
    from repro.quant.degree_quant import (
        DegreeQuantizer,
        attach_degree_probabilities,
        degree_quant_factory,
    )

    dims = layer_dimensions(graph.num_features, 16, graph.num_classes, 2)
    model = QuantNodeClassifier.from_assignment(
        dims, "gcn", uniform_assignment(gcn_component_names(2), 8),
        quantizer_factory=degree_quant_factory(rng=np.random.default_rng(0)),
        rng=np.random.default_rng(0))
    attach_degree_probabilities(model, graph)
    model.train()

    quantizers = [m for m in model.modules() if isinstance(m, DegreeQuantizer)]
    assert quantizers
    aligned = []
    for quantizer in quantizers:
        original = quantizer._row_probabilities

        def patched(num_rows, _original=original, _q=quantizer):
            probabilities = _original(num_rows)
            if probabilities is not None:
                aligned.append(_q)
            return probabilities

        quantizer._row_probabilities = patched

    batch = next(iter(NeighborSampler(graph, [4, 4], batch_size=16, seed=1)))
    model(batch)
    # Degree protection actually fired during the block forward...
    assert aligned
    # ...and the per-layer block context was cleared afterwards.
    assert all(quantizer._block is None for quantizer in quantizers)


def test_trainer_seed_reproducibility(graph):
    results = []
    for _ in range(2):
        model = _fresh_model(graph, "gcn", seed=4)
        results.append(MinibatchTrainer(model, fanouts=4, batch_size=32,
                                        seed=7).fit(graph, epochs=4))
    np.testing.assert_allclose(results[0].loss_history, results[1].loss_history)


# --------------------------------------------------------------------------- #
# evaluation is exact
# --------------------------------------------------------------------------- #
def test_layerwise_inference_matches_full_forward(graph):
    model = _fresh_model(graph, "gcn", seed=5)
    logits = layerwise_inference(model, graph)
    model.eval()
    from repro.tensor.tensor import no_grad

    with no_grad():
        expected = model(graph).data
    np.testing.assert_allclose(logits, expected, atol=1e-6)


def test_evaluate_matches_full_batch_evaluation(graph):
    model = _fresh_model(graph, "sage", seed=6)
    trainer = MinibatchTrainer(model, fanouts=3, batch_size=32)
    accuracy = trainer.evaluate(graph, graph.test_mask)
    expected = evaluate_node_classifier(model, graph, graph.test_mask)
    assert accuracy == pytest.approx(expected)


def test_missing_train_mask_rejected(graph):
    stripped = graph.copy()
    stripped.train_mask = None
    model = _fresh_model(graph, "gcn")
    with pytest.raises(ValueError):
        MinibatchTrainer(model, fanouts=3).fit(stripped, epochs=1)
