#!/usr/bin/env python
"""Quickstart: mixed-precision quantization of a two-layer GCN with MixQ-GNN.

This is the paper's headline pipeline on the Cora stand-in:

1. load a node-classification graph,
2. train an FP32 GCN baseline,
3. run the MixQ-GNN differentiable bit-width search,
4. instantiate and train the quantized architecture,
5. compare accuracy, average bit-width and BitOPs against the baseline.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import MixQNodeClassifier
from repro.core.build import build_node_model
from repro.graphs.datasets import load_cora
from repro.training import train_node_classifier


def main() -> None:
    graph = load_cora(scale=0.2, seed=0)
    print(f"Dataset: {graph}")
    hidden = 16

    # ---------------------------------------------------------------- FP32
    # The FP32 model is the GCN family with no bit-widths assigned.
    fp32_model = build_node_model("gcn", graph.num_features, hidden, graph.num_classes,
                                  num_layers=2, rng=np.random.default_rng(0))
    fp32 = train_node_classifier(fp32_model, graph, epochs=80, lr=0.02)
    fp32_gbitops = fp32_model.bit_operations(graph).giga_bit_operations()
    print(f"FP32 baseline:     accuracy={fp32.test_accuracy:.3f}  "
          f"bits=32.00  GBitOPs={fp32_gbitops:.4f}")

    # ------------------------------------------------------------- MixQ-GNN
    for lambda_value in (-1e-8, 0.1, 1.0):
        mixq = MixQNodeClassifier("gcn", graph.num_features, hidden, graph.num_classes,
                                  num_layers=2, bit_choices=(2, 4, 8),
                                  lambda_value=lambda_value, seed=0)
        result = mixq.fit(graph, search_epochs=40, train_epochs=80, lr=0.02)
        label = "-1e-8" if lambda_value < 0 else f"{lambda_value:g}"
        speedup = fp32_gbitops / max(result.giga_bit_operations, 1e-12)
        print(f"MixQ(λ={label:>6}):  accuracy={result.accuracy:.3f}  "
              f"bits={result.average_bits:5.2f}  GBitOPs={result.giga_bit_operations:.4f}  "
              f"({speedup:.1f}x fewer BitOPs than FP32)")
        print(f"  selected bit-widths: {result.assignment}")


if __name__ == "__main__":
    main()
