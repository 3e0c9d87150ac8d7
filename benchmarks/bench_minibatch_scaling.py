"""Full-batch vs. neighbor-sampled minibatch training as the graph grows.

Shape reproduced: sampled training's per-epoch peak memory is bounded by
``batch_size * fanout^L`` instead of the node count, so it keeps training as
the SBM stand-in grows past the sizes the full-batch path can reasonably
touch, while full-batch cost grows with the whole graph.  Wall-time and
peak-allocation are measured with ``tracemalloc`` on one training epoch each.

Sizes are deliberately modest at the quick scale (CI); run with
``REPRO_SCALE=standard`` for the 10k-100k-node sweep of the scaling claim.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
from _bench_utils import run_once

from repro.experiments.config import current_scale
from repro.core.build import build_node_model
from repro.graphs.datasets.synthetic import SBMConfig, generate_sbm_graph
from repro.training.trainer import (
    epoch_steps,
    node_loss,
    train_node_classifier,
    training_sampler,
)


def _make_graph(num_nodes: int, seed: int = 0):
    config = SBMConfig(num_nodes=num_nodes, num_classes=8, num_features=64,
                       average_degree=8.0, train_per_class=num_nodes // 32,
                       num_val=num_nodes // 10, num_test=num_nodes // 5,
                       name=f"sbm-{num_nodes}")
    return generate_sbm_graph(config, seed=seed)


def _model(graph, seed: int = 0):
    return build_node_model("sage", graph.num_features, 32, graph.num_classes,
                            rng=np.random.default_rng(seed))


def _timed_peak(fn) -> tuple:
    """(wall seconds, tracemalloc peak bytes) of one call."""
    tracemalloc.start()
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return elapsed, peak


def _sweep():
    quick = current_scale().name == "quick"
    compare_sizes = [2_000, 5_000] if quick else [10_000, 30_000]
    frontier_size = 10_000 if quick else 100_000

    rows = []
    for num_nodes in compare_sizes:
        graph = _make_graph(num_nodes)

        full_time, full_peak = _timed_peak(
            lambda: train_node_classifier(_model(graph), graph, epochs=1))

        model = _model(graph)
        sampler = training_sampler(model, graph, 10, batch_size=256)

        def one_epoch():
            # Training steps only — exact full-graph evaluation is shared by
            # both modes, so the comparison isolates the gradient path.
            for data, targets, mask in epoch_steps(graph, graph.train_mask, sampler):
                model.zero_grad()
                node_loss(model, data, targets, mask, multilabel=False).backward()

        mini_time, mini_peak = _timed_peak(one_epoch)
        rows.append((num_nodes, full_time, full_peak, mini_time, mini_peak))

    # The frontier size runs minibatch-only: this is the regime the
    # full-batch path cannot touch (its epoch cost keeps growing with N).
    graph = _make_graph(frontier_size)
    model = _model(graph)
    result = train_node_classifier(
        model, graph, epochs=1,
        sampler=training_sampler(model, graph, 10, batch_size=256))
    return rows, (frontier_size, result)


def test_minibatch_scaling(benchmark):
    rows, (frontier_size, frontier_result) = run_once(benchmark, _sweep)

    header = (f"{'nodes':>8} {'full s':>8} {'full MB':>9} "
              f"{'mini s':>8} {'mini MB':>9}")
    print("\nminibatch vs full-batch (one epoch)")
    print(header)
    for num_nodes, full_time, full_peak, mini_time, mini_peak in rows:
        print(f"{num_nodes:>8} {full_time:>8.2f} {full_peak / 1e6:>9.1f} "
              f"{mini_time:>8.2f} {mini_peak / 1e6:>9.1f}")
    print(f"frontier: {frontier_size} nodes trained one minibatch epoch, "
          f"test accuracy {frontier_result.test_accuracy:.3f}")

    peaks = [(full_peak, mini_peak) for _, _, full_peak, _, mini_peak in rows]
    # Minibatch peak memory stays below full-batch at every compared size...
    for full_peak, mini_peak in peaks:
        assert mini_peak < full_peak
    # ...and is roughly size-free: growing the graph must not grow the
    # per-step peak proportionally (allow 2x slack for sampler overheads).
    assert peaks[-1][1] < 2.0 * peaks[0][1]
    # Full-batch peak does grow with the graph — that is the wall the
    # minibatch engine removes.
    assert peaks[-1][0] > peaks[0][0]
    # The frontier-size graph actually trained and predicts above chance.
    assert np.isfinite(frontier_result.test_accuracy)
    assert frontier_result.test_accuracy > 1.0 / 8 # 8 classes
