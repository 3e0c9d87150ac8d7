#!/usr/bin/env python
"""Graph classification with MixQ-GNN: the Table 8 pipeline in miniature.

A five-layer GIN with global max pooling is searched and quantized on a
TU-style graph-classification dataset (IMDB-B stand-in), with a 3-fold
cross-validation comparing FP32 against MixQ-GNN.

Run with:  python examples/graph_classification.py
"""

from __future__ import annotations

import numpy as np

from repro.core import MixQGraphClassifier
from repro.graphs.datasets import load_tu_dataset
from repro.graphs.datasets.tu import dataset_labels
from repro.graphs.splits import stratified_k_fold_indices
from repro.quant.qmodules import QuantGraphClassifier
from repro.training import train_graph_classifier


def main() -> None:
    graphs = load_tu_dataset("imdb-b", num_graphs=60, seed=0)
    labels = dataset_labels(graphs)
    num_classes = int(labels.max()) + 1
    print(f"IMDB-B stand-in: {len(graphs)} graphs, {num_classes} classes, "
          f"{graphs[0].num_features} features")

    folds = stratified_k_fold_indices(labels, num_folds=3, rng=np.random.default_rng(0))
    fp32_scores, mixq_scores, mixq_bits = [], [], []
    for fold, (train_idx, test_idx) in enumerate(folds):
        train_graphs = [graphs[i] for i in train_idx]
        test_graphs = [graphs[i] for i in test_idx]

        # FP32: the GIN-0 classifier with no bit-widths assigned
        fp32_model = QuantGraphClassifier(graphs[0].num_features, 16, num_classes, {},
                                          num_layers=5, rng=np.random.default_rng(fold))
        fp32 = train_graph_classifier(fp32_model, train_graphs, test_graphs, epochs=10,
                                      rng=np.random.default_rng(fold))
        fp32_scores.append(fp32.test_accuracy)

        mixq = MixQGraphClassifier(graphs[0].num_features, 16, num_classes,
                                   num_layers=5, bit_choices=(4, 8),
                                   lambda_value=-1e-8, seed=fold)
        result = mixq.fit(train_graphs, test_graphs, search_epochs=4, train_epochs=10)
        mixq_scores.append(result.accuracy)
        mixq_bits.append(result.average_bits)
        print(f"fold {fold}: FP32={fp32.test_accuracy:.3f}  MixQ={result.accuracy:.3f} "
              f"(bits={result.average_bits:.2f})")

    print(f"\nFP32  accuracy: {np.mean(fp32_scores):.3f} ± {np.std(fp32_scores):.3f}")
    print(f"MixQ  accuracy: {np.mean(mixq_scores):.3f} ± {np.std(mixq_scores):.3f} "
          f"at {np.mean(mixq_bits):.2f} average bits (vs 32 for FP32)")


if __name__ == "__main__":
    main()
