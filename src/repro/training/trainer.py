"""Training loops for node-level and graph-level tasks.

The loops are deliberately plain QAT training: Adam, optional weight decay,
early stopping on a validation mask, and an optional extra penalty term
(used by the A²Q baseline's memory penalty).  Both the FP32 baselines and
every quantized variant in the benchmarks run through these functions so
comparisons differ only in the model.

:func:`train_node_classifier` is the one node-training loop: an epoch is one
full-graph step, or with a sampler from :func:`training_sampler` one step per
fanout-capped batch (cost bounded by ``batch_size`` and the fanouts, not the
node count).  Evaluation never samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Union

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


def node_loss(model: Module, data: Union[Graph, BlockBatch], targets: np.ndarray,
              mask: Optional[np.ndarray], multilabel: bool) -> Tensor:
    """Task loss of one step of :func:`epoch_steps`."""
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


def train_node_classifier(model: Module, graph: Graph, epochs: int = 100,
                          lr: float = 0.01, weight_decay: float = 5e-4,
                          multilabel: bool = False,
                          extra_penalty: Optional[Callable[[Module, Graph], Tensor]] = None,
                          penalty_weight: float = 0.0,
                          patience: Optional[int] = None,
                          sampler: Optional[NeighborSampler] = None
                          ) -> NodeTrainingResult:
    """Train a node classifier transductively with optional early stopping.

    An epoch runs the steps of :func:`epoch_steps` and records their mean
    loss; model selection and accuracies use full-graph evaluation.
    """
    if graph.train_mask is None:
        raise ValueError("graph has no train_mask")
    if graph.y is None:
        raise ValueError("graph has no labels")
    optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    loss_history: List[float] = []
    best_val = -np.inf
    best_epoch = 0
    best_state = None
    epochs_without_improvement = 0

    for epoch in range(epochs):
        model.train()
        step_losses: List[float] = []
        for data, targets, mask in epoch_steps(graph, graph.train_mask, sampler):
            model.zero_grad()
            loss = node_loss(model, data, targets, mask, multilabel)
            if extra_penalty is not None and penalty_weight:
                loss = loss + extra_penalty(model, graph) * float(penalty_weight)
            loss.backward()
            optimizer.step()
            step_losses.append(loss.item())
        loss_history.append(float(np.mean(step_losses)))

        if graph.val_mask is not None and graph.val_mask.any():
            val_accuracy = evaluate_node_classifier(model, graph, graph.val_mask, multilabel)
            if val_accuracy > best_val:
                best_val = val_accuracy
                best_epoch = epoch
                best_state = model.state_dict()
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
            if patience is not None and epochs_without_improvement > patience:
                break

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
    """Train a graph classifier with mini-batched Adam."""
    if rng is None:
        rng = np.random.default_rng(0)
    optimizer = Adam(model.parameters(), lr=lr)
    loss_history: List[float] = []
    for _ in range(epochs):
        model.train()
        epoch_losses = []
        for batch in iterate_minibatches(list(train_graphs), batch_size, rng=rng):
            model.zero_grad()
            loss = F.cross_entropy(model(batch), batch.y)
            loss.backward()
            optimizer.step()
            epoch_losses.append(float(loss.data))
        loss_history.append(float(np.mean(epoch_losses)))
    train_accuracy = evaluate_graph_classifier(model, train_graphs, batch_size)
    test_accuracy = evaluate_graph_classifier(model, test_graphs, batch_size)
    return GraphTrainingResult(train_accuracy, test_accuracy, loss_history)
