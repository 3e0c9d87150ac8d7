#!/usr/bin/env python
"""Repeat-traffic serving with the shared block cache and the async engine.

The example quantization-aware-trains a small GCN, exports it into a
:class:`~repro.serving.QuantizedArtifact`, and serves a repetitive request
trace (the same popular nodes over and over — what online traffic looks
like) three ways:

1. an *uncached* :class:`~repro.serving.BlockSession` — every request
   resamples its receptive field from scratch;
2. a *cached* session (``cache_size=...``) — the shared
   :class:`~repro.cache.BlockCache` reuses per-seed sampled rows across
   overlapping requests and whole sampled block stacks across repeats, with
   **bit-identical** logits (asserted);
3. the :class:`~repro.serving.AsyncServingEngine` — many client threads
   submit concurrently, an idle dispatcher flushes at once (requests that
   arrive during a flush share the next one), micro-batches fan out over a
   worker pool.

It doubles as a CI smoke test: the parity assertions and the warm-cache
speedup must hold.

Run with:  python examples/cached_serving.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.graphs.datasets import load_cora
from repro.quant.qmodules import (
    QuantNodeClassifier,
    gcn_component_names,
    uniform_assignment,
)
from repro.serving import AsyncServingEngine, BlockSession, QuantizedArtifact
from repro.training.trainer import train_node_classifier


def main() -> None:
    # 1. QAT-train and export ---------------------------------------------
    graph = load_cora(scale=0.08, seed=0)
    model = QuantNodeClassifier.from_assignment(
        [(graph.num_features, 16), (16, graph.num_classes)], "gcn",
        uniform_assignment(gcn_component_names(2), 8),
        dropout=0.0, rng=np.random.default_rng(0))
    train_node_classifier(model, graph, epochs=20, lr=0.02)
    model.eval()
    artifact = QuantizedArtifact.from_model(model)
    print(f"Graph: {graph}")
    print(artifact.summary())

    # 2. A repetitive trace: 4 distinct requests, served 32 times ---------
    rng = np.random.default_rng(7)
    pool = rng.choice(graph.num_nodes, size=96, replace=False)
    distinct = [np.sort(rng.choice(pool, size=24, replace=False))
                for _ in range(4)]
    trace = [distinct[int(i)] for i in rng.integers(0, 4, size=32)]

    def serve_all(session) -> float:
        start = time.perf_counter()
        for nodes in trace:
            session.predict(nodes)
        return time.perf_counter() - start

    uncached = BlockSession(artifact, graph, fanouts=5, batch_size=32, seed=1)
    cached = BlockSession(artifact, graph, fanouts=5, batch_size=32, seed=1,
                          cache_size=65536)

    uncached_seconds = serve_all(uncached)
    serve_all(cached)                      # cold pass fills the cache
    cold_stats = cached.cache_stats()
    cached_seconds = serve_all(cached)     # steady state: warm cache
    warm_stats = cached.cache_stats()

    # 3. Bit-identical outputs, measurably lower latency ------------------
    for nodes in distinct:
        parity = np.array_equal(cached.predict(nodes), uncached.predict(nodes))
        assert parity, "cached serving must be bit-identical"
    stats = cached.cache_stats()
    speedup = uncached_seconds / cached_seconds
    print(f"uncached: {uncached_seconds * 1e3:7.1f} ms for {len(trace)} requests")
    print(f"cached  : {cached_seconds * 1e3:7.1f} ms warm "
          f"({speedup:.1f}x, hit rate {stats.hit_rate():.1%}, "
          f"{stats.entries} entries / {stats.bytes / 1e6:.2f} MB)")
    # Gate on counters, not wall clock (CI runners are noisy): the warm
    # pass must have been answered from the cache without a single miss.
    assert warm_stats.hits > cold_stats.hits
    assert warm_stats.misses == cold_stats.misses, \
        "warm repeat traffic must be served entirely from the cache"

    # 4. Async serving: concurrent clients, work-conserving dispatch ------
    session = BlockSession(artifact, graph, fanouts=5, batch_size=32, seed=1,
                           cache_size=65536)
    with AsyncServingEngine(session, max_batch=64, workers=4) as engine:
        futures = [engine.submit(nodes) for nodes in trace]
        results = [future.result(timeout=60) for future in futures]
    for nodes, result in zip(trace, results):
        assert np.array_equal(result.logits, uncached.predict(nodes)), \
            "async serving must match the synchronous session"
    stats = engine.stats
    print(f"async   : {stats.requests} requests / {stats.micro_batches} "
          f"micro-batches, {stats.throughput():.0f} nodes/s, "
          f"{stats.giga_bit_operations:.4f} GBitOPs")
    print("parity assertions passed — cached + async serving are exact")


if __name__ == "__main__":
    main()
