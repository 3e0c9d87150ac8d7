"""Attention score-plan serving: block vs full cost, parity held throughout.

Shape reproduced: the per-edge score plans (GAT) keep the block-serving
cost profile of the matrix layers — a fixed-size request costs only its
fanout-bounded receptive field however large the served graph grows, even
though every request recomputes attention scores and softmax on its edge
list — while the parity contracts survive at scale: fanout=∞ block logits
stay bit-identical to the full-graph engine, and cached serving stays
bit-identical to uncached.

The heads sweep (``test_attention_heads_scaling``) serves the same graph
through H ∈ {1, 2, 4, 8} head artifacts: under concat merge the transform
and aggregation widths are head-invariant, so BitOPs grow only through
the per-head score stage — mildly and monotonically — while fanout=∞
parity holds at every head count.

Sizes are modest at the quick scale (CI); run with ``REPRO_SCALE=standard``
for the larger sweep.
"""

from __future__ import annotations

import time

import numpy as np
from _bench_utils import run_once

from repro.experiments.config import current_scale
from repro.graphs.datasets.synthetic import SBMConfig, generate_sbm_graph
from repro.quant.qmodules import QuantNodeClassifier, gat_component_names, \
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


def _export_artifact(calibration_graph, heads: int = 1) -> QuantizedArtifact:
    """INT8 GAT artifact calibrated on the smallest graph."""
    model = QuantNodeClassifier.from_assignment(
        [(calibration_graph.num_features, 32),
         (32, calibration_graph.num_classes)],
        "gat", uniform_assignment(gat_component_names(2), 8),
        dropout=0.0, heads=heads, rng=np.random.default_rng(0))
    train_node_classifier(model, calibration_graph, epochs=2, lr=0.01)
    model.eval()
    return QuantizedArtifact.from_model(model)


def _sweep():
    quick = current_scale().name == "quick"
    sizes = [2_000, 6_000] if quick else [10_000, 30_000]

    parity_graph = _make_graph(sizes[0])
    artifact = _export_artifact(parity_graph)
    rng = np.random.default_rng(7)

    # Parity at the calibration size: fanout=∞ block == full graph, bitwise.
    full_logits = FullGraphSession(artifact, parity_graph).predict()
    exact_logits = BlockSession(artifact, parity_graph, fanouts=None,
                                batch_size=parity_graph.num_nodes).predict()
    parity_exact = np.array_equal(exact_logits, full_logits)

    rows = []
    for num_nodes in sizes:
        graph = _make_graph(num_nodes)
        seeds = rng.choice(num_nodes, size=REQUEST_SEEDS, replace=False)

        start = time.perf_counter()
        full_run = FullGraphSession(artifact, graph).run(seeds)
        full_time = time.perf_counter() - start

        plain = BlockSession(artifact, graph, fanouts=FANOUT,
                             batch_size=REQUEST_SEEDS, seed=1)
        start = time.perf_counter()
        block_run = plain.run(seeds)
        block_time = time.perf_counter() - start

        cached = BlockSession(artifact, graph, fanouts=FANOUT,
                              batch_size=REQUEST_SEEDS, seed=1,
                              cache_size=65536)
        cached.predict(seeds)                       # cold fill
        start = time.perf_counter()
        cached_logits = cached.predict(seeds)       # warm repeat
        warm_time = time.perf_counter() - start

        rows.append((num_nodes, full_time, block_time, warm_time,
                     full_run, block_run,
                     np.array_equal(cached_logits, block_run.logits)))
    return parity_exact, rows


def test_attention_serving_scaling(benchmark):
    parity_exact, rows = run_once(benchmark, _sweep)

    print(f"\nGAT score-plan serving (one {REQUEST_SEEDS}-seed request, "
          f"fanout={FANOUT})")
    print(f"{'nodes':>8} {'full s':>8} {'block s':>8} {'warm s':>8} "
          f"{'full GBitOPs':>13} {'block GBitOPs':>14}")
    for num_nodes, full_time, block_time, warm_time, full_run, block_run, _ \
            in rows:
        print(f"{num_nodes:>8} {full_time:>8.3f} {block_time:>8.3f} "
              f"{warm_time:>8.3f} {full_run.giga_bit_operations():>13.4f} "
              f"{block_run.giga_bit_operations():>14.4f}")

    # fanout=∞ block serving is bit-identical to the full-graph engine
    assert parity_exact
    # cached repeats are bit-identical to uncached serving at every size
    assert all(cached_ok for *_, cached_ok in rows)
    for num_nodes, _, _, _, full_run, block_run, _ in rows:
        # a block request touches only its fanout-bounded receptive field
        assert block_run.num_input_nodes <= REQUEST_SEEDS * (FANOUT + 1) ** 2
        assert block_run.num_input_nodes < num_nodes
        # the score-plan BitOPs of the request stay below the full pass
        assert block_run.bit_operations.total_bit_operations \
            < full_run.bit_operations.total_bit_operations
    # full-graph request cost grows with the graph, block cost does not
    full_ops = [row[4].bit_operations.total_bit_operations for row in rows]
    block_ops = [row[5].bit_operations.total_bit_operations for row in rows]
    assert full_ops[-1] > full_ops[0]
    assert block_ops[-1] < 2 * block_ops[0]


HEAD_COUNTS = (1, 2, 4, 8)


def _heads_sweep():
    quick = current_scale().name == "quick"
    graph = _make_graph(2_000 if quick else 10_000)
    rng = np.random.default_rng(11)
    seeds = rng.choice(graph.num_nodes, size=REQUEST_SEEDS, replace=False)

    rows = []
    for heads in HEAD_COUNTS:
        artifact = _export_artifact(graph, heads=heads)
        full = FullGraphSession(artifact, graph)
        session = BlockSession(artifact, graph, fanouts=FANOUT,
                               batch_size=REQUEST_SEEDS, seed=1)
        start = time.perf_counter()
        run = session.run(seeds)
        latency = time.perf_counter() - start
        exact = BlockSession(artifact, graph, fanouts=None,
                             batch_size=graph.num_nodes).predict()
        parity = np.array_equal(exact, full.predict())
        rows.append((heads, latency, run,
                     full.bit_operations().total_bit_operations, parity))
    return rows


def test_attention_heads_scaling(benchmark):
    rows = run_once(benchmark, _heads_sweep)

    print(f"\nGAT heads sweep (one {REQUEST_SEEDS}-seed request, "
          f"fanout={FANOUT}, concat merge — width fixed, scores per head)")
    print(f"{'heads':>6} {'latency ms':>11} {'req GBitOPs':>12} "
          f"{'full GBitOPs':>13}")
    for heads, latency, run, full_ops, _ in rows:
        print(f"{heads:>6} {latency * 1e3:>11.2f} "
              f"{run.giga_bit_operations():>12.4f} {full_ops / 1e9:>13.4f}")

    # fanout=∞ block == full-graph, bit-identical, at every head count
    assert all(parity for *_, parity in rows)
    # the per-head score stage makes cost strictly monotone in heads...
    request_ops = [run.bit_operations.total_bit_operations
                   for _, _, run, _, _ in rows]
    full_ops = [ops for *_, ops, _ in rows]
    assert request_ops == sorted(request_ops) and request_ops[-1] > request_ops[0]
    assert full_ops == sorted(full_ops) and full_ops[-1] > full_ops[0]
    # ...but under concat merge the transform/aggregate widths are head-
    # invariant, so 8 heads stay well below twice the single-head cost
    assert request_ops[-1] < 2 * request_ops[0]
