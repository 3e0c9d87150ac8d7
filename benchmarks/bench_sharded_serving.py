"""Shard-scaling of the multi-process serving tier under zipfian load.

Shape reproduced: a sharded serving fleet scales *aggregate* throughput
with the shard count because every shard serves its partition-local slice
of the traffic from its own process — its own CPU, its own
:class:`~repro.cache.BlockCache` — while cross-shard receptive fields are
resolved once through the halo protocol and then pinned in the
requester's cache.

Two numbers are measured for shards ∈ {1, 2, 4}, both on the same
deterministic zipfian trace and the identical engine front:

* ``aggregate_qps`` — the fleet's capacity: the trace is split into
  partition-local streams (each request replayed against the shard that
  owns the plurality of its seeds, exactly how the router assigns
  chunks), each stream is replayed closed-loop *in isolation*, and the
  per-shard rates are summed.  This is the standard capacity measure for
  a fleet — each shard is measured at full speed, as it would run on its
  own host/core — and is the number expected to scale with shards.
* ``fleet_qps`` — the same engine serving the full mixed trace
  *concurrently*.  On a host with >= shards cores this approaches the
  aggregate; on a single-core host (CI containers — the printed header
  reports ``cpus``) every worker time-slices one core, so this
  number instead exposes the pure protocol overhead of sharding.

The run asserts the deterministic accounting invariants (every request
served exactly once, every shard exercised, warm caches actually
hitting) and prints the three rates; their ordering is a wall-clock
outcome over ~128 requests — it flips run to run on a 2-CPU host — so it
is reported, not asserted.
"""

from __future__ import annotations

import os

import numpy as np
from _bench_utils import run_once

from repro.experiments.config import current_scale
from repro.graphs.datasets.synthetic import SBMConfig, generate_sbm_graph
from repro.loadgen import TrafficConfig, generate_trace, run_load
from repro.loadgen.traffic import LoadTrace
from repro.quant.qmodules import QuantNodeClassifier, gcn_component_names, \
    uniform_assignment
from repro.serving import AsyncServingEngine, BlockSession, QuantizedArtifact
from repro.sharding import ShardedBlockSession
from repro.training.trainer import train_node_classifier

SHARD_COUNTS = (1, 2, 4)
PARTITION = "degree"
FANOUT = 8
BATCH = 256
#: Per-process cache entry budget — the per-host memory framing: every
#: process (the single-process baseline included) gets the same budget.
CACHE_PER_PROCESS = 16384


def _make_graph(num_nodes: int, seed: int = 11):
    config = SBMConfig(num_nodes=num_nodes, num_classes=8, num_features=64,
                       average_degree=12.0, train_per_class=num_nodes // 32,
                       num_val=num_nodes // 10, num_test=num_nodes // 5,
                       name=f"sbm-shard-{num_nodes}")
    return generate_sbm_graph(config, seed=seed)


def _export_artifact(calibration_graph) -> QuantizedArtifact:
    model = QuantNodeClassifier.from_assignment(
        [(calibration_graph.num_features, 32),
         (32, calibration_graph.num_classes)],
        "gcn", uniform_assignment(gcn_component_names(2), 8),
        dropout=0.0, rng=np.random.default_rng(1))
    train_node_classifier(model, calibration_graph, epochs=2, lr=0.01)
    model.eval()
    return QuantizedArtifact.from_model(model)


def _shard_streams(trace: LoadTrace, assignment: np.ndarray,
                   n_shards: int) -> "dict[int, LoadTrace]":
    """The trace split by routing shard — each request keyed to the shard
    owning the plurality of its seeds, mirroring the router's chunk
    assignment (arrivals zeroed: the streams replay closed-loop)."""
    buckets: "dict[int, list]" = {shard: [] for shard in range(n_shards)}
    for nodes in trace.requests:
        owner = int(np.bincount(assignment[nodes],
                                minlength=n_shards).argmax())
        buckets[owner].append(nodes)
    return {shard: LoadTrace(arrivals=np.zeros(len(requests)),
                             requests=tuple(requests), config=trace.config)
            for shard, requests in buckets.items() if requests}


def _measure(artifact, graph, trace, shards, clients):
    if shards == 1:
        session = BlockSession(artifact, graph, fanouts=FANOUT,
                               batch_size=BATCH, seed=7,
                               cache_size=CACHE_PER_PROCESS)
        assignment = np.zeros(graph.num_nodes, dtype=np.int64)
    else:
        session = ShardedBlockSession(artifact, graph, shards=shards,
                                      partition=PARTITION, fanouts=FANOUT,
                                      batch_size=BATCH, seed=7,
                                      cache_size=CACHE_PER_PROCESS)
        assignment = session.assignment
    streams = _shard_streams(trace, assignment, shards)
    try:
        with AsyncServingEngine(session, max_batch=BATCH, workers=4) as engine:
            # Warm pass per stream: fork-time page faults and cold caches
            # stay outside every measured window.
            for stream in streams.values():
                run_load(engine, stream, mode="closed", clients=clients)

            fleet = run_load(engine, trace, mode="closed", clients=clients)

            per_shard = {}
            for shard, stream in sorted(streams.items()):
                run = run_load(engine, stream, mode="closed", clients=clients)
                per_shard[shard] = run
        hits = fleet.cache_hits or 0
        lookups = fleet.cache_lookups or 0
        return {
            "streams": {shard: stream.num_requests
                        for shard, stream in streams.items()},
            "per_shard_qps": {shard: run.achieved_qps
                              for shard, run in per_shard.items()},
            "aggregate_qps": sum(run.achieved_qps
                                 for run in per_shard.values()),
            "fleet_qps": fleet.achieved_qps,
            "fleet_requests": fleet.requests,
            "cache_hit_rate": hits / lookups if lookups else 0.0,
        }
    finally:
        close = getattr(session, "close", None)
        if close is not None:
            close()


def _sweep():
    quick = current_scale().name == "quick"
    num_nodes = 2_000 if quick else 6_000
    num_requests = 128 if quick else 384
    clients = 4

    graph = _make_graph(num_nodes)
    artifact = _export_artifact(graph)
    trace = generate_trace(TrafficConfig(
        num_nodes=num_nodes, pattern="zipfian", skew=1.1,
        seeds_per_request=16, num_requests=num_requests, seed=7))
    results = {shards: _measure(artifact, graph, trace, shards, clients)
               for shards in SHARD_COUNTS}
    return trace, results


def test_sharded_scaling(benchmark):
    trace, results = run_once(benchmark, _sweep)

    print(f"\nsharded serving: zipfian trace, {trace.num_requests} requests x "
          f"{trace.config.seeds_per_request} seeds, partition={PARTITION}, "
          f"cache={CACHE_PER_PROCESS}/process, "
          f"cpus={len(os.sched_getaffinity(0))}")
    print(f"{'shards':>7} {'aggregate QPS':>14} {'fleet QPS':>10} "
          f"{'hit rate':>9}  per-shard QPS (stream size)")
    for shards, result in results.items():
        detail = "  ".join(
            f"s{shard}:{qps:.0f} ({result['streams'][shard]}req)"
            for shard, qps in sorted(result["per_shard_qps"].items()))
        print(f"{shards:>7} {result['aggregate_qps']:>14.1f} "
              f"{result['fleet_qps']:>10.1f} "
              f"{result['cache_hit_rate']:>9.1%}  {detail}")

    for shards, result in results.items():
        # every request of the mixed trace was served exactly once
        assert result["fleet_requests"] == trace.num_requests
        # the deterministic trace must exercise every shard
        assert len(result["streams"]) == shards
        # warm zipfian traffic keeps every cache useful
        assert result["cache_hit_rate"] > 0.5
