"""Training: the one optimisation loop and its node- and graph-task callers.

:func:`optimise` is the one epoch loop: plain QAT training with Adam,
optional weight decay and an optional penalty term.  The FP32 baselines,
every quantized variant, the A²Q baseline's memory penalty and the
bit-width search (:mod:`repro.core.selection`, Algorithm 1's "Find
Bit-widths") all run through it, so comparisons differ only in the model
and the objective.  A caller does its per-epoch work between the loop's
yields: :func:`train_node_classifier` keeps the best validation epoch.

A step source is a zero-argument callable that returns one epoch of
``(data, targets, mask)`` steps: :func:`epoch_steps` for node
classification (one full-graph step, or with a sampler from
:func:`training_sampler` one step per fanout-capped batch, whose cost is
bounded by ``batch_size`` and the fanouts, not the node count) and
:func:`graph_steps` for graph classification.  Evaluation never samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache import BlockCache
from repro.gnn.models import total_hops
from repro.graphs.batch import iterate_minibatches
from repro.graphs.graph import Graph
from repro.graphs.sampling import BlockBatch, Fanout, NeighborSampler
from repro.nn.module import Module
from repro.optim import Adam
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad
from repro.training.evaluation import masked_accuracy, roc_auc_score


@dataclass
class NodeTrainingResult:
    """Summary of one node-classification training run."""

    train_accuracy: float
    val_accuracy: float
    test_accuracy: float
    loss_history: List[float] = field(default_factory=list)
    best_epoch: int = 0

    def __repr__(self) -> str:
        return (f"NodeTrainingResult(test={self.test_accuracy:.3f}, "
                f"val={self.val_accuracy:.3f}, epochs={len(self.loss_history)})")


@dataclass
class GraphTrainingResult:
    """Summary of one graph-classification training run."""

    train_accuracy: float
    test_accuracy: float
    loss_history: List[float] = field(default_factory=list)


def training_sampler(model: Module, graph: Graph, fanouts: Union[Fanout, Sequence[Fanout]] = 10,
                     batch_size: int = 512, seed: int = 0,
                     cache_size: int = 0) -> NeighborSampler:
    """The neighbor sampler that trains ``model`` on ``graph.train_mask``.

    One block per hop of the conv stack (a TAG layer takes ``hops``); the
    seed order is reshuffled every epoch.  A positive ``cache_size``
    attaches a :class:`~repro.cache.BlockCache`; sampling is counter-based,
    so a cache never changes the result.  Whole batches are not cached:
    they do not repeat.
    """
    cache = BlockCache(max_entries=cache_size) if cache_size > 0 else None
    return NeighborSampler(graph, fanouts, batch_size=batch_size,
                           num_layers=total_hops(model.convs),
                           seed_nodes=graph.train_mask, seed=seed,
                           cache=cache, cache_batches=False)


def epoch_steps(graph: Graph, mask: Optional[np.ndarray],
                sampler: Optional[NeighborSampler] = None) -> Iterator[tuple]:
    """One epoch's gradient steps as ``(data, targets, mask)``.

    Without a sampler: one step, the full graph under ``mask``.  With one:
    a step per sampled batch, scored on the batch's own seed labels.
    """
    if sampler is None:
        yield graph, graph.y, mask
    else:
        for batch in sampler:
            yield batch, batch.y, None


def graph_steps(graphs: Sequence[Graph], batch_size: int,
                rng: Optional[np.random.Generator] = None) -> Callable[[], Iterator[tuple]]:
    """The step source of a graph-classification task: every call is one
    epoch of mini-batches reshuffled by ``rng`` (seed 0 if omitted), each
    scored on its one logit row per graph."""
    graphs = list(graphs)
    rng = np.random.default_rng(0) if rng is None else rng
    return lambda: ((batch, batch.y, None)
                    for batch in iterate_minibatches(graphs, batch_size, rng=rng))


def node_loss(model: Module, data: Union[Graph, BlockBatch], targets: np.ndarray,
              mask: Optional[np.ndarray], multilabel: bool) -> Tensor:
    """Task loss of one step: a node batch under ``mask``, or one logit row per
    graph of a :func:`graph_steps` batch."""
    logits = model(data)
    if multilabel:
        return F.binary_cross_entropy_with_logits(logits, targets, mask=mask)
    return F.cross_entropy(logits, targets, mask=mask)


def evaluate_node_classifier(model: Module, graph: Graph,
                             mask: Optional[np.ndarray] = None,
                             multilabel: bool = False) -> float:
    """Accuracy (or ROC-AUC for multi-label targets) on the selected nodes."""
    model.eval()
    with no_grad():
        logits = model(graph).data
    if multilabel:
        return roc_auc_score(logits, graph.y, mask=mask)
    return masked_accuracy(logits, graph.y, mask=mask)


def optimise(model: Module, steps: Callable[[], Iterable[tuple]], epochs: int,
             lr: float = 0.01, weight_decay: float = 0.0, multilabel: bool = False,
             penalty: Optional[Callable[[], Tensor]] = None, penalty_weight: float = 0.0,
             penalty_only_alphas: bool = False) -> Iterator[Tuple[float, float]]:
    """The one optimisation loop: yields each epoch's mean task loss and penalty.

    An epoch runs Adam over the ``(data, targets, mask)`` steps of
    ``steps()``, each scored by :func:`node_loss`.  The objective is the task
    loss plus ``penalty_weight`` times ``penalty()`` (computed after the
    forward pass, since a relaxed quantizer's penalty depends on the tensor
    it last saw).  ``penalty_only_alphas`` is Algorithm 1's decoupled routing
    (lines 19/22): the weights receive only the task gradient and the
    relaxation parameters only the penalty gradient.  Callers do their
    per-epoch work between yields; the model is back in training mode when
    the next epoch starts.
    """
    # Imported here: repro.core imports this module.
    from repro.core.penalty import alpha_parameters

    optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    for _ in range(epochs):
        model.train()
        losses: List[float] = []
        penalties: List[float] = []
        for data, targets, mask in steps():
            model.zero_grad()
            loss = objective = node_loss(model, data, targets, mask, multilabel)
            if penalty is not None:
                term = penalty()
                penalties.append(term.item())
                if penalty_only_alphas:
                    # The penalty depends on the alphas alone, so its backward
                    # pass touches nothing else.
                    loss.backward()
                    for alpha in alpha_parameters(model):
                        alpha.grad = None
                    objective = term * float(penalty_weight)
                elif penalty_weight:
                    objective = loss + term * float(penalty_weight)
            objective.backward()
            optimizer.step()
            losses.append(loss.item())
        yield float(np.mean(losses)), float(np.mean(penalties)) if penalties else 0.0


def train_node_classifier(model: Module, graph: Graph, epochs: int = 100,
                          lr: float = 0.01, weight_decay: float = 5e-4,
                          multilabel: bool = False,
                          extra_penalty: Optional[Callable[[Module, Graph], Tensor]] = None,
                          penalty_weight: float = 0.0,
                          sampler: Optional[NeighborSampler] = None
                          ) -> NodeTrainingResult:
    """Train a node classifier transductively, keeping the best validation epoch.

    An epoch is one pass of :func:`optimise` over :func:`epoch_steps`;
    ``loss_history`` holds its mean task loss.  Model selection and the
    accuracies use full-graph evaluation.
    """
    if graph.train_mask is None:
        raise ValueError("graph has no train_mask")
    if graph.y is None:
        raise ValueError("graph has no labels")
    penalty = None if extra_penalty is None else (lambda: extra_penalty(model, graph))
    select = graph.val_mask is not None and graph.val_mask.any()
    loss_history: List[float] = []
    best_val = -np.inf
    best_epoch = 0
    best_state = None
    for epoch, (loss, _) in enumerate(optimise(
            model, lambda: epoch_steps(graph, graph.train_mask, sampler), epochs, lr,
            weight_decay, multilabel, penalty, penalty_weight)):
        loss_history.append(loss)
        if select:
            val_accuracy = evaluate_node_classifier(model, graph, graph.val_mask, multilabel)
            if val_accuracy > best_val:
                best_val, best_epoch, best_state = val_accuracy, epoch, model.state_dict()
    if best_state is not None:
        model.load_state_dict(best_state)

    def score(mask: Optional[np.ndarray]) -> float:
        return evaluate_node_classifier(model, graph, mask, multilabel) \
            if mask is not None and mask.any() else float("nan")

    return NodeTrainingResult(
        evaluate_node_classifier(model, graph, graph.train_mask, multilabel),
        score(graph.val_mask), score(graph.test_mask), loss_history, best_epoch)


def evaluate_graph_classifier(model: Module, graphs: Sequence[Graph],
                              batch_size: int = 64) -> float:
    """Classification accuracy over a list of graphs."""
    model.eval()
    correct = 0
    total = 0
    with no_grad():
        for batch in iterate_minibatches(list(graphs), batch_size, shuffle=False):
            predictions = model(batch).data.argmax(axis=-1)
            correct += int((predictions == batch.y).sum())
            total += batch.num_graphs
    return correct / max(total, 1)


def train_graph_classifier(model: Module, train_graphs: Sequence[Graph],
                           test_graphs: Sequence[Graph], epochs: int = 30,
                           lr: float = 0.01, batch_size: int = 32,
                           rng: Optional[np.random.Generator] = None
                           ) -> GraphTrainingResult:
    """Train a graph classifier with :func:`optimise` over :func:`graph_steps`."""
    steps = graph_steps(train_graphs, batch_size, rng)
    loss_history = [loss for loss, _ in optimise(model, steps, epochs, lr)]
    return GraphTrainingResult(evaluate_graph_classifier(model, train_graphs, batch_size),
                               evaluate_graph_classifier(model, test_graphs, batch_size),
                               loss_history)
