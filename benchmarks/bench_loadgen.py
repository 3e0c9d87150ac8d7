"""Traffic-replay load harness: zipfian traffic against the async engine.

Shape reproduced: production serving traffic is skewed and repetitive, so
an :class:`~repro.serving.AsyncServingEngine` over a cached
:class:`~repro.serving.BlockSession` absorbs an open-loop zipfian request
stream with sane tail latencies and a warm cache — and the whole
measurement is *replayable*: the request trace is a pure function of its
:class:`~repro.loadgen.TrafficConfig`, so the same seed produces the same
traffic on every machine.

The sweep replays one deterministic trace open-loop (Poisson arrivals)
and once closed-loop, asserting the accounting invariants (percentile
ordering, SLO rate bounds, every request served exactly once) and the
cache's steady-state effect.

Sizes are deliberately modest at the quick scale (CI); run with
``REPRO_SCALE=standard`` for the larger sweep.
"""

from __future__ import annotations

import numpy as np
from _bench_utils import run_once

from repro.experiments.config import current_scale
from repro.graphs.datasets.synthetic import SBMConfig, generate_sbm_graph
from repro.loadgen import TrafficConfig, generate_trace, metrics_from_run, run_load
from repro.quant.qmodules import QuantNodeClassifier, gcn_component_names, \
    uniform_assignment
from repro.serving import AsyncServingEngine, BlockSession, QuantizedArtifact
from repro.training.trainer import train_node_classifier

FANOUT = 5
SEEDS_PER_REQUEST = 8
DEADLINE_MS = 250.0
WARMUP = 8


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


def _sweep():
    quick = current_scale().name == "quick"
    num_nodes = 2_000 if quick else 10_000
    qps = 60.0 if quick else 150.0
    duration = 0.6 if quick else 2.0

    graph = _make_graph(num_nodes)
    artifact = _export_artifact(graph)
    config = TrafficConfig(num_nodes=num_nodes, pattern="zipfian", skew=1.2,
                           seeds_per_request=SEEDS_PER_REQUEST,
                           arrival="poisson", qps=qps,
                           duration_seconds=duration, seed=7)
    trace = generate_trace(config)
    # Replayability: the trace is a pure function of its config.
    replay = generate_trace(config)
    deterministic = (
        np.array_equal(trace.arrivals, replay.arrivals)
        and all(np.array_equal(a, b)
                for a, b in zip(trace.requests, replay.requests)))

    runs = {}
    for mode in ("open", "closed"):
        session = BlockSession(artifact, graph, fanouts=FANOUT,
                               batch_size=256, seed=1, cache_size=65536)
        with AsyncServingEngine(session, max_batch=256, workers=2) as engine:
            run = run_load(engine, trace, mode=mode, clients=4,
                           warmup_requests=WARMUP)
        runs[mode] = (run, metrics_from_run(run, deadline_ms=DEADLINE_MS))
    return deterministic, trace, runs


def test_loadgen_replay(benchmark):
    deterministic, trace, runs = run_once(benchmark, _sweep)

    print(f"\nload harness: zipfian traffic, {trace.num_requests} requests x "
          f"{SEEDS_PER_REQUEST} seeds (warm-up {WARMUP}), fanout={FANOUT}")
    print(f"{'mode':>8} {'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8} "
          f"{'QPS':>8} {'SLO viol':>9} {'hit rate':>9}")
    for mode, (run, metrics) in runs.items():
        print(f"{mode:>8} {metrics['p50_ms']:>8.2f} {metrics['p95_ms']:>8.2f} "
              f"{metrics['p99_ms']:>8.2f} {metrics['achieved_qps']:>8.1f} "
              f"{metrics['slo_violation_rate']:>9.1%} "
              f"{metrics['cache_hit_rate']:>9.1%}")

    # same seed -> identical request trace (the replayability contract)
    assert deterministic
    for mode, (run, metrics) in runs.items():
        # every measured request was served exactly once
        assert run.requests == trace.num_requests - WARMUP
        assert run.nodes == run.requests * SEEDS_PER_REQUEST
        # percentile accounting is internally consistent
        assert metrics["p50_ms"] <= metrics["p95_ms"] <= metrics["p99_ms"] \
            <= metrics["max_ms"]
        assert 0.0 <= metrics["slo_violation_rate"] <= 1.0
        assert metrics["achieved_qps"] > 0
        # zipfian repeat traffic keeps the warm cache useful
        assert metrics["cache_hit_rate"] > 0.2
