"""Bit-width selection — the "Find Bit-widths" loop of Algorithm 1.

The relaxed architecture is trained with the Lagrangian objective
``L(A'(G), y) + lambda * sum_i C(T_i)``; both the network weights and the
relaxation parameters ``alpha`` receive gradients.  After ``epochs``
iterations the arg-max bit-width of every relaxed quantizer forms the final
assignment sequence ``S``.

Two entry points are provided: :func:`search_node_bitwidths` for
transductive node classification (full-graph or sampled, over the steps of
the node-training loop) and :func:`search_graph_bitwidths` for mini-batched
graph classification.  Both return a :class:`BitWidthSearchResult` with the
assignment, per-epoch history and the expected average bit-width trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.penalty import expected_average_bits, total_penalty
from repro.graphs.batch import iterate_minibatches
from repro.graphs.graph import Graph
from repro.optim import Adam
from repro.quant.bitops import average_bits
from repro.quant.qmodules import (
    BitWidthAssignment,
    QuantGraphClassifier,
    QuantNodeClassifier,
)
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.training.trainer import epoch_steps, node_loss


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


def _backward_objective(model, task_loss: Tensor, lambda_value: float,
                        penalty_only_alphas: bool) -> Tensor:
    """Backpropagate the search objective and return the penalty value.

    The default (joint) mode backpropagates ``L + lambda * C`` through all
    parameters.  ``penalty_only_alphas`` reproduces the decoupled routing
    written out in Algorithm 1 lines 19/22: the network weights receive only
    the task gradient while the relaxation parameters ``alpha`` receive only
    the penalty gradient.
    """
    from repro.core.penalty import alpha_parameters

    penalty = total_penalty(model)
    if not penalty_only_alphas:
        objective = task_loss + penalty * float(lambda_value) if lambda_value != 0.0 \
            else task_loss
        objective.backward()
        return penalty
    # Decoupled routing: task gradient for the weights only, penalty gradient
    # for the alphas only.  The penalty depends solely on the alphas, so a
    # second backward pass touches nothing else.
    task_loss.backward()
    for alpha in alpha_parameters(model):
        alpha.grad = None
    (penalty * float(lambda_value)).backward()
    return penalty


def search_node_bitwidths(model: QuantNodeClassifier, graph: Graph,
                          lambda_value: float, epochs: int = 60, lr: float = 0.01,
                          weight_decay: float = 5e-4,
                          mask: Optional[np.ndarray] = None,
                          multilabel: bool = False,
                          penalty_only_alphas: bool = False,
                          sampler=None) -> BitWidthSearchResult:
    """Run the relaxed search on a transductive node-classification graph.

    An epoch's steps are the node-training loop's
    (:func:`~repro.training.trainer.epoch_steps`): the full graph under
    ``mask``, or one per batch of ``sampler``.  The relaxed quantizers and
    the penalty are the same either way; only the task-loss estimator changes.
    """
    if mask is None:
        mask = graph.train_mask
    optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    loss_history: List[float] = []
    penalty_history: List[float] = []
    bits_history: List[float] = []
    model.train()
    for _ in range(epochs):
        step_losses: List[float] = []
        step_penalties: List[float] = []
        for data, targets, step_mask in epoch_steps(graph, mask, sampler):
            model.zero_grad()
            task_loss = node_loss(model, data, targets, step_mask, multilabel)
            penalty = _backward_objective(model, task_loss, lambda_value,
                                          penalty_only_alphas)
            optimizer.step()
            step_losses.append(float(task_loss.data))
            step_penalties.append(float(penalty.data))
        loss_history.append(float(np.mean(step_losses)))
        penalty_history.append(float(np.mean(step_penalties)))
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


def search_graph_bitwidths(model: QuantGraphClassifier, graphs: Sequence[Graph],
                           lambda_value: float, epochs: int = 20, lr: float = 0.01,
                           batch_size: int = 32,
                           rng: Optional[np.random.Generator] = None,
                           penalty_only_alphas: bool = False) -> BitWidthSearchResult:
    """Run the relaxed search on a graph-classification dataset."""
    if rng is None:
        rng = np.random.default_rng(0)
    optimizer = Adam(model.parameters(), lr=lr)
    loss_history: List[float] = []
    penalty_history: List[float] = []
    bits_history: List[float] = []
    model.train()
    for _ in range(epochs):
        epoch_losses: List[float] = []
        epoch_penalties: List[float] = []
        for batch in iterate_minibatches(list(graphs), batch_size, rng=rng):
            model.zero_grad()
            logits = model(batch)
            task_loss = F.cross_entropy(logits, batch.y)
            penalty = _backward_objective(model, task_loss, lambda_value,
                                          penalty_only_alphas)
            optimizer.step()
            epoch_losses.append(float(task_loss.data))
            epoch_penalties.append(float(penalty.data))
        loss_history.append(float(np.mean(epoch_losses)))
        penalty_history.append(float(np.mean(epoch_penalties)))
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
