"""Block-based vs. full-graph integer serving as the graph grows.

Shape reproduced: a serving request for a fixed number of seed nodes costs
the :class:`~repro.serving.BlockSession` only its fanout-bounded receptive
field, so per-request time and peak memory stay (roughly) flat as the
served graph grows — while the :class:`~repro.serving.FullGraphSession`
pays for every node and edge, so its cost keeps growing with the graph.

The artifact is exported once from a model calibrated on the smallest
graph and then served against ever larger SBM stand-ins drawn from the
same distribution — exactly the portability the deployment artifact is
for.  Wall-time and peak allocation of one request are measured with
``tracemalloc``, the same harness style as ``bench_minibatch_scaling.py``.

Sizes are deliberately modest at the quick scale (CI); run with
``REPRO_SCALE=standard`` for the larger sweep.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
from _bench_utils import run_once

from repro.experiments.config import current_scale
from repro.graphs.datasets.synthetic import SBMConfig, generate_sbm_graph
from repro.quant.qmodules import QuantNodeClassifier, sage_component_names, \
    uniform_assignment
from repro.serving import BlockSession, FullGraphSession, QuantizedArtifact
from repro.training.trainer import train_node_classifier

REQUEST_SEEDS = 64
FANOUT = 5


def _make_graph(num_nodes: int, seed: int = 0):
    config = SBMConfig(num_nodes=num_nodes, num_classes=8, num_features=64,
                       average_degree=8.0, train_per_class=num_nodes // 32,
                       num_val=num_nodes // 10, num_test=num_nodes // 5,
                       name=f"sbm-{num_nodes}")
    return generate_sbm_graph(config, seed=seed)


def _export_artifact(calibration_graph) -> QuantizedArtifact:
    """INT8 GraphSAGE artifact calibrated on the smallest graph."""
    model = QuantNodeClassifier.from_assignment(
        [(calibration_graph.num_features, 32),
         (32, calibration_graph.num_classes)],
        "sage", uniform_assignment(sage_component_names(2), 8),
        dropout=0.0, rng=np.random.default_rng(0))
    train_node_classifier(model, calibration_graph, epochs=2, lr=0.01)
    model.eval()
    return QuantizedArtifact.from_model(model)


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
    compare_sizes = [3_000, 9_000] if quick else [10_000, 30_000]
    frontier_size = 20_000 if quick else 100_000

    artifact = _export_artifact(_make_graph(compare_sizes[0]))
    rng = np.random.default_rng(7)

    rows = []
    for num_nodes in compare_sizes:
        graph = _make_graph(num_nodes)
        seeds = rng.choice(num_nodes, size=REQUEST_SEEDS, replace=False)

        full_time, full_peak = _timed_peak(
            lambda: FullGraphSession(artifact, graph).predict(seeds))
        block_time, block_peak = _timed_peak(
            lambda: BlockSession(artifact, graph, fanouts=FANOUT,
                                 batch_size=REQUEST_SEEDS).predict(seeds))
        rows.append((num_nodes, full_time, full_peak, block_time, block_peak))

    # The frontier size runs block-only: the full-graph engine's request
    # cost keeps growing with N, the block engine's does not.
    graph = _make_graph(frontier_size)
    seeds = rng.choice(frontier_size, size=REQUEST_SEEDS, replace=False)
    session = BlockSession(artifact, graph, fanouts=FANOUT,
                           batch_size=REQUEST_SEEDS)
    run = session.run(seeds)
    return rows, (frontier_size, run)


def test_serving_scaling(benchmark):
    rows, (frontier_size, frontier_run) = run_once(benchmark, _sweep)

    print(f"\nblock vs full-graph integer serving "
          f"(one {REQUEST_SEEDS}-seed request, fanout={FANOUT})")
    print(f"{'nodes':>8} {'full s':>8} {'full MB':>9} "
          f"{'block s':>8} {'block MB':>9}")
    for num_nodes, full_time, full_peak, block_time, block_peak in rows:
        print(f"{num_nodes:>8} {full_time:>8.3f} {full_peak / 1e6:>9.2f} "
              f"{block_time:>8.3f} {block_peak / 1e6:>9.2f}")
    print(f"frontier: {frontier_size} nodes, request touched "
          f"{frontier_run.num_input_nodes} input nodes / "
          f"{frontier_run.num_edges} edges in {frontier_run.seconds:.3f}s")

    full_peaks = [full_peak for _, _, full_peak, _, _ in rows]
    block_peaks = [block_peak for _, _, _, _, block_peak in rows]
    # Full-graph request cost grows with the graph...
    assert full_peaks[-1] > full_peaks[0]
    # ...block requests stay cheaper than full-graph at every size...
    for full_peak, block_peak in zip(full_peaks, block_peaks):
        assert block_peak < full_peak
    # ...and roughly size-free (2x slack for sampler bookkeeping, which
    # carries a few O(N) index arrays).
    assert block_peaks[-1] < 2.0 * block_peaks[0]
    # The frontier request stayed fanout-bounded and produced usable logits.
    assert frontier_run.num_input_nodes <= REQUEST_SEEDS * (FANOUT + 1) ** 2
    assert np.isfinite(frontier_run.logits).all()
    assert frontier_run.logits.shape == (REQUEST_SEEDS, 8)
