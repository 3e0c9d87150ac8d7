"""Graph-classification experiments: Tables 8 and 9 of the paper."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.mixq import MixQGraphClassifier
from repro.experiments.common import MethodRow, merge_seed_rows, mixq_label
from repro.experiments.config import ExperimentScale, QUICK
from repro.graphs.batch import GraphBatch
from repro.graphs.datasets import load_csl, load_tu_dataset
from repro.graphs.datasets.tu import dataset_labels
from repro.graphs.graph import Graph
from repro.graphs.splits import stratified_k_fold_indices
from repro.quant.bitops import FP32_BITS, average_bits
from repro.quant.qmodules import (
    BitWidthAssignment,
    QuantGraphClassifier,
    gin_component_names,
    uniform_assignment,
)
from repro.training.trainer import train_graph_classifier

#: Bit-width search spaces per dataset (paper Table 8 caption).
TABLE8_BIT_CHOICES: Dict[str, Sequence[int]] = {
    "imdb-b": (4, 8),
    "proteins": (4, 8),
    "dd": (4, 8),
    "reddit-b": (8, 16),
    "reddit-m": (8, 16),
}


def _cross_validated_rows(graphs: List[Graph], num_folds: int,
                          assignments: Dict[str, BitWidthAssignment],
                          bit_choices: Sequence[int], lambdas: Sequence[float],
                          hidden: int, num_layers: int, scale: ExperimentScale,
                          lr: float = 0.01, batch_size: int = 32,
                          dropout: float = 0.5) -> List[MethodRow]:
    """A graph table: one row per fixed assignment (FP32: ``{}``), then one
    per MixQ λ, each trained and searched afresh in every fold.

    Every row runs on the same stratified folds, and every row's BitOPs are
    counted on one reference batch, the first 32 graphs: a fixed row's are
    ``bits / 32`` of the FP32 GIN's, a MixQ row's are the fold mean of the
    searched models' (its bits too, as :func:`merge_seed_rows` does).
    """
    rows = {name: MethodRow(name, bits=average_bits(assignment.values()))
            for name, assignment in assignments.items()}
    mixq_folds: Dict[float, List[MethodRow]] = {lam: [] for lam in lambdas}
    reference = GraphBatch(graphs[:32])
    labels = dataset_labels(graphs)
    num_classes = int(labels.max()) + 1
    folds = stratified_k_fold_indices(labels, num_folds, rng=np.random.default_rng(0))
    for fold_index, (train_idx, test_idx) in enumerate(folds):
        train = [graphs[i] for i in train_idx]
        test = [graphs[i] for i in test_idx]
        for name, assignment in assignments.items():
            rng = np.random.default_rng(fold_index)
            model = QuantGraphClassifier(graphs[0].num_features, hidden, num_classes,
                                         assignment, num_layers=num_layers,
                                         dropout=dropout, rng=rng)
            rows[name].accuracies.append(train_graph_classifier(
                model, train, test, epochs=scale.graph_train_epochs, lr=lr,
                batch_size=batch_size, rng=rng).test_accuracy)
        for lam in lambdas:
            mixq = MixQGraphClassifier(graphs[0].num_features, hidden, num_classes,
                                       num_layers=num_layers, bit_choices=bit_choices,
                                       lambda_value=lam, dropout=dropout, seed=fold_index)
            result = mixq.fit(train, test, search_epochs=scale.graph_search_epochs,
                              train_epochs=scale.graph_train_epochs, lr=lr,
                              batch_size=batch_size)
            counter = mixq.quantized_model.bit_operations(reference)
            mixq_folds[lam].append(MethodRow(
                mixq_label(lam), [result.accuracy], bits=result.average_bits,
                giga_bit_operations=counter.giga_bit_operations()))
    fp32 = QuantGraphClassifier(graphs[0].num_features, hidden, num_classes, {},
                                num_layers=num_layers)
    fp32_gbitops = fp32.bit_operations(reference).giga_bit_operations()
    for row in rows.values():
        row.giga_bit_operations = fp32_gbitops * row.bits / FP32_BITS
    return [*rows.values(), *(merge_seed_rows(mixq_folds[lam]) for lam in lambdas)]


def table8_graph_classification(datasets: Sequence[str], scale: ExperimentScale = QUICK,
                                num_layers: int = 5,
                                lambdas: Sequence[float] = (-1e-8, 1.0)
                                ) -> Dict[str, List[MethodRow]]:
    """Table 8: k-fold cross-validated GIN graph classification.

    Per fold a fresh relaxed architecture is searched (as in the paper); the
    FP32 and uniform-QAT baselines run on the identical folds.
    """
    results: Dict[str, List[MethodRow]] = {}
    for dataset in datasets:
        bit_choices = TABLE8_BIT_CHOICES.get(dataset, (4, 8))
        qat_bits = min(bit_choices)
        assignments = {"FP32": {}, f"DQ INT{qat_bits}": uniform_assignment(
            gin_component_names(num_layers), qat_bits)}
        graphs = load_tu_dataset(dataset, num_graphs=scale.num_graphs, seed=0)
        results[dataset] = _cross_validated_rows(
            graphs, scale.num_folds, assignments, bit_choices, lambdas,
            scale.hidden_features, num_layers, scale)
    return results


def table9_csl(datasets: Sequence[str], scale: ExperimentScale = QUICK,
               num_layers: int = 4, positional_encoding_dim: int = 20,
               copies_per_class: int = 6) -> Dict[str, List[MethodRow]]:
    """Table 9: CSL graph classification — FP32, QAT-INT2, QAT-INT4 and MixQ.

    The architecture is a GCN-style stack in the paper; here the GIN-based
    graph classifier is used with the CSL Laplacian positional encodings,
    preserving the phenomenon under study (INT2 collapses, INT4 recovers,
    MixQ sits in between with fewer bits).  CSL is the only dataset.
    """
    if list(datasets) != ["csl"]:
        raise KeyError(f"Table 9 runs on CSL only, not {list(datasets)}")
    graphs = load_csl(copies_per_class=copies_per_class,
                      positional_encoding_dim=positional_encoding_dim, seed=0)
    # CSL's class signal lives in small differences of the positional
    # encodings, so the folds train without dropout, with small batches and a
    # slightly larger learning rate (the paper trains the real dataset for
    # many more epochs than the CPU budget here allows).
    components = gin_component_names(num_layers)
    assignments = {"FP32": {}, "QAT - INT2": uniform_assignment(components, 2),
                   "QAT - INT4": uniform_assignment(components, 4)}
    return {"csl": _cross_validated_rows(graphs, max(scale.num_folds, 2), assignments,
                                         (2, 4), (-1e-8,), scale.hidden_features,
                                         num_layers, scale, lr=0.02, batch_size=16,
                                         dropout=0.0)}
