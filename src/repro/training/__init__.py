"""Training loops, metrics and cross-validation used by the experiments.

Node classifiers train through one loop, :func:`train_node_classifier`,
full-graph or with the sampler of :func:`training_sampler`.
"""

from repro.training.evaluation import accuracy, masked_accuracy, roc_auc_score
from repro.training.trainer import (
    NodeTrainingResult,
    GraphTrainingResult,
    train_node_classifier,
    train_graph_classifier,
    training_sampler,
    evaluate_node_classifier,
    evaluate_graph_classifier,
)
from repro.training.cross_validation import cross_validate_graph_classifier

__all__ = [
    "accuracy",
    "masked_accuracy",
    "roc_auc_score",
    "NodeTrainingResult",
    "GraphTrainingResult",
    "train_node_classifier",
    "train_graph_classifier",
    "training_sampler",
    "evaluate_node_classifier",
    "evaluate_graph_classifier",
    "cross_validate_graph_classifier",
]
