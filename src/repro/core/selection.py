"""Bit-width selection — the "Find Bit-widths" loop of Algorithm 1.

The relaxed architecture is trained with the Lagrangian objective
``L(A'(G), y) + lambda * sum_i C(T_i)``; both the network weights and the
relaxation parameters ``alpha`` receive gradients.  The search is ordinary
QAT training: it runs the one optimisation loop of
:func:`~repro.training.trainer.optimise` with the penalty added, as an
ordinary parameter group of the same Adam.  After ``epochs`` epochs the
arg-max bit-width of every relaxed quantizer forms the final assignment
sequence ``S``.

:func:`search_node_bitwidths` (transductive node classification, full-graph
or sampled) and :func:`search_graph_bitwidths` (mini-batched graph
classification) differ only in their step source.  Both return a
:class:`BitWidthSearchResult` with the assignment, the per-epoch task loss
and penalty, and the expected average bit-width trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.penalty import expected_average_bits, total_penalty
from repro.graphs.graph import Graph
from repro.graphs.sampling import NeighborSampler
from repro.quant.bitops import average_bits
from repro.quant.qmodules import (
    BitWidthAssignment,
    QuantGraphClassifier,
    QuantNodeClassifier,
)
from repro.training.trainer import epoch_steps, graph_steps, optimise


@dataclass
class BitWidthSearchResult:
    """Outcome of the differentiable bit-width search."""

    assignment: BitWidthAssignment
    average_bits: float
    lambda_value: float
    loss_history: List[float] = field(default_factory=list)
    penalty_history: List[float] = field(default_factory=list)
    expected_bits_history: List[float] = field(default_factory=list)

    def __repr__(self) -> str:
        return (f"BitWidthSearchResult(components={len(self.assignment)}, "
                f"average_bits={self.average_bits:.2f}, lambda={self.lambda_value})")


def _search(model, steps, lambda_value: float, epochs: int, lr: float,
            weight_decay: float = 0.0, multilabel: bool = False,
            penalty_only_alphas: bool = False) -> BitWidthSearchResult:
    """:func:`~repro.training.trainer.optimise` with ``lambda * sum_i C(T_i)``
    added, recording the expected average bit-width after every epoch."""
    loss_history: List[float] = []
    penalty_history: List[float] = []
    bits_history: List[float] = []
    for loss, penalty in optimise(model, steps, epochs, lr, weight_decay, multilabel,
                                  lambda: total_penalty(model), lambda_value,
                                  penalty_only_alphas):
        loss_history.append(loss)
        penalty_history.append(penalty)
        bits_history.append(expected_average_bits(model))
    assignment = model.component_bits()
    return BitWidthSearchResult(
        assignment=assignment,
        average_bits=average_bits(assignment.values()),
        lambda_value=lambda_value,
        loss_history=loss_history,
        penalty_history=penalty_history,
        expected_bits_history=bits_history,
    )


def search_node_bitwidths(model: QuantNodeClassifier, graph: Graph,
                          lambda_value: float, epochs: int = 60, lr: float = 0.01,
                          weight_decay: float = 5e-4, multilabel: bool = False,
                          penalty_only_alphas: bool = False,
                          sampler: Optional[NeighborSampler] = None) -> BitWidthSearchResult:
    """Run the relaxed search on a transductive node-classification graph.

    The steps are the node-training ones
    (:func:`~repro.training.trainer.epoch_steps`): the full graph under its
    ``train_mask``, or one per batch of ``sampler``.  The relaxed quantizers
    and the penalty are the same either way; only the task-loss estimator
    changes.
    """
    return _search(model, lambda: epoch_steps(graph, graph.train_mask, sampler),
                   lambda_value, epochs, lr, weight_decay, multilabel,
                   penalty_only_alphas)


def search_graph_bitwidths(model: QuantGraphClassifier, graphs: Sequence[Graph],
                           lambda_value: float, epochs: int = 20, lr: float = 0.01,
                           batch_size: int = 32,
                           rng: Optional[np.random.Generator] = None,
                           penalty_only_alphas: bool = False) -> BitWidthSearchResult:
    """Run the relaxed search on a graph-classification dataset."""
    return _search(model, graph_steps(graphs, batch_size, rng), lambda_value, epochs,
                   lr, penalty_only_alphas=penalty_only_alphas)
