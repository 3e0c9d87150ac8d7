"""The one optimisation loop, its node and graph callers, and metrics.

:func:`~repro.training.trainer.optimise` is the only epoch loop; node
classifiers train through :func:`train_node_classifier` (full-graph or with
the sampler of :func:`training_sampler`), graph classifiers through
:func:`train_graph_classifier`, and the bit-width search of
:mod:`repro.core.selection` runs the same loop with the penalty added.
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
]
