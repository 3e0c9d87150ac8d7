"""High-level MixQ-GNN API (search → finalize → quantization-aware training).

These classes tie the whole pipeline of Figure 7 together:

1. **Relaxation** — build the relaxed architecture over the bit choices ``B``.
2. **Bit-width selection** — run the differentiable search with the penalty
   weight ``lambda``.
3. **Quantized architecture** — instantiate the fixed-bit-width quantized
   model from the selected assignment.
4. **Quantization-aware training** — train the quantized model on the task.
5. **Evaluation** — report accuracy, average bit-width and (G)BitOPs.

The ``quantizer_factory`` hook selects the underlying quantizers — the
default native QAT quantizers, or the Degree-Quant factory for the
"MixQ + DQ" combination of Tables 4 and 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.build import layer_dimensions
from repro.core.relaxed_quantizer import mixture_quantizer_factory
from repro.core.selection import (
    BitWidthSearchResult,
    search_graph_bitwidths,
    search_node_bitwidths,
)
from repro.graphs.batch import GraphBatch
from repro.graphs.graph import Graph
from repro.quant.bitops import BitOpsCounter, average_bits
from repro.quant.degree_quant import DegreeQuantizer, attach_degree_probabilities
from repro.quant.qmodules import (
    BitWidthAssignment,
    QuantGraphClassifier,
    QuantNodeClassifier,
    QuantizerFactory,
    default_quantizer_factory,
)
from repro.training.trainer import (
    evaluate_node_classifier,
    train_graph_classifier,
    train_node_classifier,
    training_sampler,
)


@dataclass
class MixQResult:
    """End-to-end result of a MixQ-GNN run (one row of the paper's tables)."""

    accuracy: float
    average_bits: float
    giga_bit_operations: float
    assignment: BitWidthAssignment
    search: Optional[BitWidthSearchResult] = None

    def __repr__(self) -> str:
        return (f"MixQResult(accuracy={self.accuracy:.3f}, bits={self.average_bits:.2f}, "
                f"GBitOPs={self.giga_bit_operations:.3f})")


class _MixQPipeline:
    """Search, finalize, QAT and evaluate over one task's model family.

    A task supplies :meth:`_model`, the quantized model under an assignment
    and a quantizer factory: the relaxed architecture is that model built
    with the mixture factory over ``bit_choices``, the quantized one is it
    built with the selected assignment.  Both stages train through the one
    loop of :func:`~repro.training.trainer.optimise`, fed by the task's step
    source.
    """

    def __init__(self, bit_choices: Sequence[int], lambda_value: float, dropout: float,
                 quantizer_factory: QuantizerFactory, seed: int):
        self.bit_choices = [int(b) for b in bit_choices]
        self.lambda_value = float(lambda_value)
        self.dropout = dropout
        self.quantizer_factory = quantizer_factory
        self.seed = seed
        self.search_result: Optional[BitWidthSearchResult] = None
        self.quantized_model = None

    def _rng(self, offset: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + offset)

    def _model(self, assignment: BitWidthAssignment, quantizer_factory: QuantizerFactory,
               rng: np.random.Generator):
        raise NotImplementedError

    def _relaxed(self):
        """Stage 3 of Figure 7: the relaxed architecture."""
        return self._model({}, mixture_quantizer_factory(self.bit_choices,
                                                         self.quantizer_factory),
                           self._rng(1))

    def finalize(self, assignment: Optional[BitWidthAssignment] = None):
        """Stage 5 of Figure 7: build the quantized architecture."""
        if assignment is None:
            if self.search_result is None:
                raise RuntimeError("run search() first or provide an assignment")
            assignment = self.search_result.assignment
        self.quantized_model = self._model(assignment, self.quantizer_factory,
                                           self._rng(2))
        return self.quantized_model

    def _result(self, accuracy: float, counter: BitOpsCounter,
                assignment: BitWidthAssignment) -> MixQResult:
        return MixQResult(accuracy=accuracy, average_bits=self.quantized_model.average_bits(),
                          giga_bit_operations=counter.giga_bit_operations(),
                          assignment=assignment, search=self.search_result)


class MixQNodeClassifier(_MixQPipeline):
    """MixQ-GNN for transductive node classification.

    Parameters
    ----------
    conv_type:
        ``"gcn"`` / ``"gin"`` / ``"sage"`` / ``"gat"`` / ``"tag"`` /
        ``"transformer"`` — the layer family to quantize.
    in_features / hidden_features / num_classes / num_layers:
        Architecture specification.
    bit_choices:
        The candidate bit-width set ``B`` (e.g. ``(2, 4, 8)``).
    lambda_value:
        Penalty weight; negative epsilon values reproduce the paper's
        ``MixQ(λ=-ε)`` accuracy-first configuration, larger positive values
        compress harder.
    quantizer_factory:
        Quantizer backend; pass :func:`repro.quant.degree_quant.degree_quant_factory`
        for the MixQ + DQ combination.
    hops:
        Adjacency powers per TAG layer (ignored by the other families).
        In minibatch mode a TAG layer consumes ``hops`` sampled blocks, so
        the neighbor sampler emits ``num_layers * hops`` blocks per batch.
    heads / head_merge:
        Attention heads per GAT / Transformer layer (ignored by the other
        families).  Hidden layers merge head outputs by ``head_merge``
        (``concat`` by default), the output layer by ``mean``; the merged
        layer widths never change, so the search space and the assignment
        format are identical to the single-head setup.
    """

    def __init__(self, conv_type: str, in_features: int, hidden_features: int,
                 num_classes: int, num_layers: int = 2,
                 bit_choices: Sequence[int] = (2, 4, 8),
                 lambda_value: float = -1e-8, dropout: float = 0.5,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 hops: int = 3, heads: int = 1, head_merge: str = "concat",
                 seed: int = 0):
        super().__init__(bit_choices, lambda_value, dropout, quantizer_factory, seed)
        self.conv_type = conv_type.lower()
        self.layer_dims = layer_dimensions(in_features, hidden_features, num_classes,
                                           num_layers)
        self.hops = int(hops)
        self.heads = int(heads)
        self.head_merge = head_merge

    def _model(self, assignment, quantizer_factory, rng) -> QuantNodeClassifier:
        return QuantNodeClassifier.from_assignment(
            self.layer_dims, self.conv_type, assignment, dropout=self.dropout,
            quantizer_factory=quantizer_factory, hops=self.hops, heads=self.heads,
            head_merge=self.head_merge, rng=rng)

    def _prepare(self, model, graph: Graph, minibatch: bool, fanout: Optional[int],
                 batch_size: int):
        """Attach degree probabilities to DegreeQuantizers, and the training
        sampler when ``minibatch`` is set."""
        if any(isinstance(module, DegreeQuantizer) for module in model.modules()):
            attach_degree_probabilities(model, graph)
        return training_sampler(model, graph, fanout, batch_size,
                                seed=self.seed) if minibatch else None

    def search(self, graph: Graph, epochs: int = 60, lr: float = 0.01,
               multilabel: bool = False, minibatch: bool = False,
               fanout: Optional[int] = 10,
               batch_size: int = 256) -> BitWidthSearchResult:
        """Stage 3-4 of Figure 7: relaxation and bit-width selection.

        ``minibatch=True`` runs the search over neighbor-sampled blocks
        (``fanout`` neighbours per layer, ``batch_size`` seeds per step);
        the relaxed quantizers are untouched, so the selected assignment
        format is identical to the full-batch search.
        """
        relaxed = self._relaxed()
        sampler = self._prepare(relaxed, graph, minibatch, fanout, batch_size)
        self.search_result = search_node_bitwidths(
            relaxed, graph, self.lambda_value, epochs=epochs, lr=lr,
            multilabel=multilabel, sampler=sampler)
        return self.search_result

    def fit(self, graph: Graph, search_epochs: int = 60, train_epochs: int = 100,
            lr: float = 0.01, multilabel: bool = False,
            assignment: Optional[BitWidthAssignment] = None,
            minibatch: bool = False, fanout: Optional[int] = 10,
            batch_size: int = 256) -> MixQResult:
        """Full pipeline: search, finalize, QAT training, evaluation.

        ``minibatch=True`` gives both the bit-width search and the final
        QAT training a neighbor sampler; evaluation stays exact (full-graph
        inference), and BitOPs are counted on the full graph.
        """
        if assignment is None:
            assignment = self.search(graph, epochs=search_epochs, lr=lr,
                                     multilabel=multilabel, minibatch=minibatch,
                                     fanout=fanout, batch_size=batch_size).assignment
        model = self.finalize(assignment)
        sampler = self._prepare(model, graph, minibatch, fanout, batch_size)
        result = train_node_classifier(model, graph, epochs=train_epochs, lr=lr,
                                       multilabel=multilabel, sampler=sampler)
        return self._result(result.test_accuracy, model.bit_operations(graph), assignment)

    def evaluate(self, graph: Graph, multilabel: bool = False) -> float:
        if self.quantized_model is None:
            raise RuntimeError("no quantized model; call fit() or finalize() first")
        return evaluate_node_classifier(self.quantized_model, graph,
                                        graph.test_mask, multilabel)


class MixQGraphClassifier(_MixQPipeline):
    """MixQ-GNN for graph classification (the 5-layer GIN setup of Table 8)."""

    def __init__(self, in_features: int, hidden_features: int, num_classes: int,
                 num_layers: int = 5, bit_choices: Sequence[int] = (4, 8),
                 lambda_value: float = -1e-8, pooling: str = "max",
                 dropout: float = 0.5,
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 seed: int = 0):
        super().__init__(bit_choices, lambda_value, dropout, quantizer_factory, seed)
        self.in_features = in_features
        self.hidden_features = hidden_features
        self.num_classes = num_classes
        self.num_layers = num_layers
        self.pooling = pooling

    def _model(self, assignment, quantizer_factory, rng) -> QuantGraphClassifier:
        return QuantGraphClassifier(
            self.in_features, self.hidden_features, self.num_classes, assignment,
            num_layers=self.num_layers, pooling=self.pooling, dropout=self.dropout,
            quantizer_factory=quantizer_factory, rng=rng)

    def search(self, graphs: Sequence[Graph], epochs: int = 10, lr: float = 0.01,
               batch_size: int = 32) -> BitWidthSearchResult:
        """Stages 3-4 of Figure 7 on mini-batches of ``graphs``."""
        self.search_result = search_graph_bitwidths(
            self._relaxed(), graphs, self.lambda_value, epochs=epochs, lr=lr,
            batch_size=batch_size, rng=self._rng(3))
        return self.search_result

    def fit(self, train_graphs: Sequence[Graph], test_graphs: Sequence[Graph],
            search_epochs: int = 10, train_epochs: int = 30, lr: float = 0.01,
            batch_size: int = 32,
            assignment: Optional[BitWidthAssignment] = None) -> MixQResult:
        """Full pipeline; BitOPs are counted on the first 32 test graphs."""
        if assignment is None:
            assignment = self.search(train_graphs, epochs=search_epochs, lr=lr,
                                     batch_size=batch_size).assignment
        model = self.finalize(assignment)
        result = train_graph_classifier(model, train_graphs, test_graphs,
                                        epochs=train_epochs, lr=lr,
                                        batch_size=batch_size, rng=self._rng(4))
        reference = GraphBatch(list(test_graphs)[:32])
        return self._result(result.test_accuracy, model.bit_operations(reference),
                            assignment)
