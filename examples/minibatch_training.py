#!/usr/bin/env python
"""Minibatch training: neighbor-sampled GraphSAGE on a large-graph stand-in.

Full-batch training holds every node's activations for every layer, so it
stops scaling with the node count.  Both modes are the same function,
``train_node_classifier``: without a sampler an epoch is one full-graph
step, with one it is a step per sampled batch.  This example trains on a
10k-node SBM stand-in by:

1. building a ``NeighborSampler`` that emits per-layer bipartite blocks
   (``fanout`` neighbours per node, ``batch_size`` seed nodes per step),
2. training GraphSAGE full-batch, then sampled (``training_sampler`` builds
   the sampler over the training nodes) — same loop, same result type,
3. evaluating with exact full-graph inference — accuracy is never
   estimated on samples,
4. doing the same sampled run for a quantization-aware (uniform INT8) model
   to show the paper's quantizers wrap the sampled blocks unchanged.

Run with:  python examples/minibatch_training.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.build import build_node_model, layer_dimensions
from repro.graphs.datasets.synthetic import SBMConfig, generate_sbm_graph
from repro.graphs.sampling import NeighborSampler
from repro.quant.qmodules import (
    QuantNodeClassifier,
    sage_component_names,
    uniform_assignment,
)
from repro.training import train_node_classifier, training_sampler


def main() -> None:
    config = SBMConfig(num_nodes=10_000, num_classes=8, num_features=64,
                       average_degree=8.0, train_per_class=300,
                       num_val=1_000, num_test=2_000, name="sbm-10k")
    graph = generate_sbm_graph(config, seed=0)
    print(f"Dataset: {graph}")

    # A quick look at what one sampled batch costs, independent of graph size.
    sampler = NeighborSampler(graph, fanouts=[10, 10], batch_size=256, seed=0)
    batch = next(iter(sampler))
    print(f"one batch: {batch} "
          f"(~{batch.input_nodes.size / graph.num_nodes:.1%} of the graph)")

    # ------------------------------------- FP32 GraphSAGE, full then sampled
    for mode in ("full-batch", "minibatch"):
        model = build_node_model("sage", graph.num_features, 32, graph.num_classes,
                                 num_layers=2, rng=np.random.default_rng(0))
        sampler = training_sampler(model, graph, 10, batch_size=256, seed=0) \
            if mode == "minibatch" else None
        start = time.perf_counter()
        result = train_node_classifier(model, graph, epochs=5, lr=0.01,
                                       sampler=sampler)
        print(f"FP32 {mode + ':':<12} accuracy={result.test_accuracy:.3f}  "
              f"({time.perf_counter() - start:.1f}s for 5 epochs)")

    # ----------------------------------------------- INT8 QAT, same loop
    dims = layer_dimensions(graph.num_features, 32, graph.num_classes, 2)
    qat = QuantNodeClassifier.from_assignment(
        dims, "sage", uniform_assignment(sage_component_names(2), 8),
        rng=np.random.default_rng(0))
    sampler = training_sampler(qat, graph, 10, batch_size=256, seed=0)
    start = time.perf_counter()
    qat_result = train_node_classifier(qat, graph, epochs=5, lr=0.01,
                                       sampler=sampler)
    print(f"INT8 QAT minibatch: accuracy={qat_result.test_accuracy:.3f}  "
          f"({time.perf_counter() - start:.1f}s for 5 epochs)")


if __name__ == "__main__":
    main()
