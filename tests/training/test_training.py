"""Tests for metrics, training loops and cross-validation."""

import numpy as np
import pytest

from repro.core.build import build_node_model
from repro.graphs.datasets.tu import dataset_labels
from repro.quant.qmodules import QuantGraphClassifier
from repro.training import (
    accuracy,
    cross_validate_graph_classifier,
    evaluate_graph_classifier,
    evaluate_node_classifier,
    masked_accuracy,
    roc_auc_score,
    train_graph_classifier,
    train_node_classifier,
)


class TestMetrics:
    def test_accuracy_perfect(self):
        logits = np.asarray([[2.0, 0.0], [0.0, 2.0]])
        assert accuracy(logits, [0, 1]) == 1.0

    def test_accuracy_half(self):
        logits = np.asarray([[2.0, 0.0], [2.0, 0.0]])
        assert accuracy(logits, [0, 1]) == 0.5

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((3, 2)), [0, 1])

    def test_masked_accuracy(self):
        logits = np.asarray([[2.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert masked_accuracy(logits, [0, 1, 1], np.asarray([True, False, True])) == 1.0

    def test_masked_accuracy_empty_mask(self):
        with pytest.raises(ValueError):
            masked_accuracy(np.zeros((2, 2)), [0, 1], np.asarray([False, False]))

    def test_roc_auc_perfect_separation(self):
        scores = np.asarray([0.1, 0.2, 0.8, 0.9])
        labels = np.asarray([0, 0, 1, 1])
        assert roc_auc_score(scores, labels) == pytest.approx(1.0)

    def test_roc_auc_random_is_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(2000)
        labels = rng.integers(0, 2, 2000)
        assert roc_auc_score(scores, labels) == pytest.approx(0.5, abs=0.05)

    def test_roc_auc_inverted_predictions(self):
        scores = np.asarray([0.9, 0.8, 0.2, 0.1])
        labels = np.asarray([0, 0, 1, 1])
        assert roc_auc_score(scores, labels) == pytest.approx(0.0)

    def test_roc_auc_multilabel_averages_tasks(self):
        scores = np.asarray([[0.9, 0.1], [0.1, 0.9], [0.8, 0.2], [0.2, 0.8]])
        labels = np.asarray([[1, 0], [0, 1], [1, 0], [0, 1]])
        assert roc_auc_score(scores, labels) == pytest.approx(1.0)

    def test_roc_auc_skips_degenerate_tasks(self):
        scores = np.asarray([[0.9, 0.5], [0.1, 0.5]])
        labels = np.asarray([[1, 1], [0, 1]])  # second task has no negatives
        assert roc_auc_score(scores, labels) == pytest.approx(1.0)

    def test_roc_auc_all_degenerate_raises(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.asarray([[0.5], [0.5]]), np.asarray([[1], [1]]))

    def test_roc_auc_with_ties(self):
        scores = np.asarray([0.5, 0.5, 0.5, 0.5])
        labels = np.asarray([0, 1, 0, 1])
        assert roc_auc_score(scores, labels) == pytest.approx(0.5)


class TestNodeTraining:
    def test_requires_train_mask(self, small_cora):
        graph = small_cora.copy()
        graph.train_mask = None
        model = build_node_model("gcn", graph.num_features, 8, graph.num_classes)
        with pytest.raises(ValueError):
            train_node_classifier(model, graph, epochs=1)

    def test_training_improves_over_initial(self, small_cora):
        model = build_node_model("gcn", small_cora.num_features, 16,
                                 small_cora.num_classes, rng=np.random.default_rng(0))
        initial = evaluate_node_classifier(model, small_cora, small_cora.test_mask)
        result = train_node_classifier(model, small_cora, epochs=40, lr=0.02)
        assert result.test_accuracy > initial
        assert result.test_accuracy > 1.0 / small_cora.num_classes

    def test_loss_history_recorded(self, small_cora):
        model = build_node_model("gcn", small_cora.num_features, 8,
                                 small_cora.num_classes, rng=np.random.default_rng(0))
        result = train_node_classifier(model, small_cora, epochs=5)
        assert len(result.loss_history) == 5

    def test_early_stopping_restores_best(self, small_cora):
        model = build_node_model("gcn", small_cora.num_features, 8,
                                 small_cora.num_classes, rng=np.random.default_rng(0))
        result = train_node_classifier(model, small_cora, epochs=60, patience=5)
        assert len(result.loss_history) <= 60
        assert result.best_epoch <= len(result.loss_history)

    def test_extra_penalty_invoked(self, small_cora):
        calls = []

        def penalty(model, graph):
            calls.append(1)
            from repro.tensor import Tensor
            return Tensor([0.0], requires_grad=False)

        model = build_node_model("gcn", small_cora.num_features, 8,
                                 small_cora.num_classes, rng=np.random.default_rng(0))
        train_node_classifier(model, small_cora, epochs=3, extra_penalty=penalty,
                              penalty_weight=0.5)
        assert len(calls) == 3


class TestGraphTraining:
    def test_training_runs_and_evaluates(self, tu_graphs):
        model = QuantGraphClassifier(tu_graphs[0].num_features, 8, 2, {}, num_layers=2,
                                     rng=np.random.default_rng(0))
        result = train_graph_classifier(model, tu_graphs[:16], tu_graphs[16:], epochs=3,
                                        rng=np.random.default_rng(0))
        assert 0.0 <= result.test_accuracy <= 1.0
        assert len(result.loss_history) == 3

    def test_evaluate_counts_all_graphs(self, tu_graphs):
        model = QuantGraphClassifier(tu_graphs[0].num_features, 8, 2, {}, num_layers=2,
                                     rng=np.random.default_rng(0))
        score = evaluate_graph_classifier(model, tu_graphs, batch_size=7)
        assert 0.0 <= score <= 1.0

    def test_cross_validation_runs_fresh_models(self, tu_graphs):
        created = []

        def factory(train_graphs):
            model = QuantGraphClassifier(tu_graphs[0].num_features, 8, 2, {},
                                         num_layers=2,
                                         rng=np.random.default_rng(len(created)))
            created.append(model)
            return model

        result = cross_validate_graph_classifier(factory, tu_graphs, num_folds=3,
                                                 epochs=2, rng=np.random.default_rng(0))
        assert len(result.fold_accuracies) == 3
        assert len(created) == 3
        assert 0.0 <= result.mean <= 1.0
        assert result.min <= result.mean <= result.max
