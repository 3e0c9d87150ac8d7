"""Block-cache hit rate and request latency under repeat serving traffic.

Shape reproduced: serving traffic is heavily repetitive (the same popular
nodes are requested over and over), so a :class:`~repro.cache.BlockCache`
attached to a :class:`~repro.serving.BlockSession` turns steady-state
requests from "resample the receptive field" into a near-free lookup.  The
sweep drives an identical Zipf-flavoured request trace through sessions
with growing cache sizes over growing SBM graphs and reports

* the cache hit rate (grows with cache size, saturating once the popular
  working set fits), and
* the mean per-request latency of the steady-state (warm) passes, which
  must drop measurably against the uncached session — while staying
  bit-identical to it, the property the cache subsystem guarantees.

Sizes are deliberately modest at the quick scale (CI); run with
``REPRO_SCALE=standard`` for the larger sweep.
"""

from __future__ import annotations

import time

import numpy as np
from _bench_utils import run_once

from repro.experiments.config import current_scale
from repro.graphs.datasets.synthetic import SBMConfig, generate_sbm_graph
from repro.quant.qmodules import QuantNodeClassifier, gcn_component_names, \
    uniform_assignment
from repro.serving import BlockSession, QuantizedArtifact
from repro.training.trainer import train_node_classifier

FANOUT = 5
REQUEST_SEEDS = 32
NUM_REQUESTS = 24
CACHE_SIZES = (0, 512, 65536)


def _make_graph(num_nodes: int, seed: int = 0):
    config = SBMConfig(num_nodes=num_nodes, num_classes=8, num_features=64,
                       average_degree=8.0, train_per_class=num_nodes // 32,
                       num_val=num_nodes // 10, num_test=num_nodes // 5,
                       name=f"sbm-{num_nodes}")
    return generate_sbm_graph(config, seed=seed)


def _export_artifact(calibration_graph) -> QuantizedArtifact:
    model = QuantNodeClassifier.from_assignment(
        [(calibration_graph.num_features, 32),
         (32, calibration_graph.num_classes)],
        "gcn", uniform_assignment(gcn_component_names(2), 8),
        dropout=0.0, rng=np.random.default_rng(0))
    train_node_classifier(model, calibration_graph, epochs=2, lr=0.01)
    model.eval()
    return QuantizedArtifact.from_model(model)


def _repeat_trace(num_nodes: int, seed: int = 7):
    """Repetitive request trace: a small popular pool, Zipf-ish reuse."""
    rng = np.random.default_rng(seed)
    pool = rng.choice(num_nodes, size=4 * REQUEST_SEEDS, replace=False)
    # A handful of distinct requests, then a shuffled repeat schedule —
    # exactly the repeat/overlap pattern online serving sees.
    base = [np.sort(rng.choice(pool, size=REQUEST_SEEDS, replace=False))
            for _ in range(4)]
    return [base[int(index)] for index in rng.integers(0, len(base),
                                                       size=NUM_REQUESTS)]


def _serve_trace(session, trace) -> float:
    start = time.perf_counter()
    for nodes in trace:
        session.predict(nodes)
    return (time.perf_counter() - start) / len(trace)


def _sweep():
    quick = current_scale().name == "quick"
    graph_sizes = [2_000, 6_000] if quick else [10_000, 30_000]
    artifact = _export_artifact(_make_graph(graph_sizes[0]))

    rows = []
    for num_nodes in graph_sizes:
        graph = _make_graph(num_nodes)
        trace = _repeat_trace(num_nodes)
        reference = BlockSession(artifact, graph, fanouts=FANOUT,
                                 batch_size=REQUEST_SEEDS).predict(trace[0])
        for cache_size in CACHE_SIZES:
            session = BlockSession(artifact, graph, fanouts=FANOUT,
                                   batch_size=REQUEST_SEEDS,
                                   cache_size=cache_size)
            _serve_trace(session, trace)          # cold pass warms the cache
            cold_stats = session.cache_stats()
            warm_latency = _serve_trace(session, trace)
            warm_stats = session.cache_stats()
            if warm_stats is None:
                hit_rate = 0.0
            else:                                 # steady-state hit rate
                hits = warm_stats.hits - cold_stats.hits
                lookups = warm_stats.lookups - cold_stats.lookups
                hit_rate = hits / lookups if lookups else 0.0
            exact = bool(np.array_equal(session.predict(trace[0]), reference))
            rows.append((num_nodes, cache_size, hit_rate, warm_latency, exact))
    return rows


def test_block_cache_hit_rate_and_latency(benchmark):
    rows = run_once(benchmark, _sweep)

    print(f"\nblock-cache repeat-traffic serving "
          f"({NUM_REQUESTS} x {REQUEST_SEEDS}-seed requests, fanout={FANOUT})")
    print(f"{'nodes':>8} {'cache':>8} {'hit rate':>9} {'warm ms':>9} {'exact':>6}")
    for num_nodes, cache_size, hit_rate, latency, exact in rows:
        print(f"{num_nodes:>8} {cache_size:>8} {hit_rate:>9.1%} "
              f"{latency * 1e3:>9.3f} {str(exact):>6}")

    by_graph: dict = {}
    for num_nodes, cache_size, hit_rate, latency, exact in rows:
        by_graph.setdefault(num_nodes, {})[cache_size] = (hit_rate, latency)
        # Cached serving is always bit-identical to uncached serving.
        assert exact
    for num_nodes, per_size in by_graph.items():
        uncached_latency = per_size[0][1]
        big_hit_rate, big_latency = per_size[CACHE_SIZES[-1]]
        small_hit_rate, _ = per_size[CACHE_SIZES[1]]
        # A warm, amply sized cache serves repeat traffic measurably faster
        # than the uncached session (the acceptance-criterion latency drop).
        assert big_latency < 0.7 * uncached_latency
        # Hit rate grows with capacity and the warm working set fits.
        assert big_hit_rate >= small_hit_rate
        assert big_hit_rate > 0.5
