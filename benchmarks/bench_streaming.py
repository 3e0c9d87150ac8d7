"""Warm-hit-rate retention under streaming updates: scoped vs naive.

Shape reproduced: a dynamic serving graph takes a steady trickle of small
updates (edge churn, feature refreshes) while the query working set stays
popular and repetitive.  The naive reaction to an update — flush the whole
block cache, because *something* changed — throws away every warm entry on
every update and re-pays the cold-sampling cost for traffic the update
never touched.  Scoped invalidation
(:meth:`~repro.serving.BlockSession.apply_update`) evicts only the
adjacency rows the update changed (and the whole-batch entries, which the
graph version keys), so every other row keeps hitting.

The benchmark drives the identical update/query schedule through two
cached sessions — one invalidating scoped, one flushing the whole cache
per update — and reports the steady-state hit rate of each.  Scoped must
retain a strictly higher warm hit rate (the tentpole's perf claim), while
both stay bit-identical to a fresh session on the equivalent static graph
(the tentpole's correctness claim).

It also prints the scoped session's median per-update split — the graph
splice (``Graph.apply_delta``), the degree refresh of the changed rows
(``NeighborSampler.refresh_rows``) and the named eviction
(``BlockCache.invalidate_nodes``) — and asserts the one deterministic fact
about it: each update evicts exactly the changed rows' entries plus the
batches, counted on a key snapshot taken just before it.
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
from repro.streaming import GraphDelta
from repro.training.trainer import train_node_classifier

FANOUT = 5
REQUEST_SEEDS = 32
CACHE_ENTRIES = 65536
EDGES_PER_UPDATE = 4


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


def _popular_requests(num_nodes: int, num_requests: int, seed: int = 7):
    """A popular pool queried over and over — warm-cache-friendly traffic."""
    rng = np.random.default_rng(seed)
    pool = rng.choice(num_nodes, size=4 * REQUEST_SEEDS, replace=False)
    base = [np.sort(rng.choice(pool, size=REQUEST_SEEDS, replace=False))
            for _ in range(4)]
    return [base[int(index)] for index in rng.integers(0, len(base),
                                                       size=num_requests)]


def _update_schedule(num_nodes: int, num_updates: int, seed: int = 11):
    """Small feature/edge deltas, deterministic given the seed."""
    rng = np.random.default_rng(seed)
    deltas = []
    for step in range(num_updates):
        if step % 2 == 0:
            edges = rng.integers(0, num_nodes, size=(2, EDGES_PER_UPDATE))
            weights = rng.random(EDGES_PER_UPDATE).astype(np.float32) \
                + np.float32(0.5)
            deltas.append(GraphDelta(added_edges=edges,
                                     added_weights=weights))
        else:
            nodes = rng.choice(num_nodes, size=2, replace=False) \
                .astype(np.int64)
            rows = rng.random((2, 64)).astype(np.float32)
            deltas.append(GraphDelta(feature_nodes=nodes, features=rows))
    return deltas


#: The steps of ``BlockSession.apply_update``: (label, owner, method).
UPDATE_STEPS = (("apply_delta", "graph", "apply_delta"),
                ("degree refresh", "sampler", "refresh_rows"),
                ("invalidation", "cache", "invalidate_nodes"))


def _record_update_steps(session):
    """Shadow each update step on this session's own instances; returns
    ``label -> [(seconds, result), ...]``, one record per call."""
    calls = {label: [] for label, _, _ in UPDATE_STEPS}
    for label, owner, method in UPDATE_STEPS:
        target = getattr(session, owner)
        original = getattr(target, method)

        def timed(*args, _original=original, _record=calls[label], **kwargs):
            start = time.perf_counter()
            result = _original(*args, **kwargs)
            _record.append((time.perf_counter() - start, result))
            return result

        setattr(target, method, timed)
    return calls


def _doomed_entries(session, delta) -> int:
    """Entries an update must evict, counted on a snapshot of the keys:
    every batch and every entry of a row the delta changes."""
    changed = set(delta.changed_rows().tolist())
    return sum(key[0] == "bat" or key[1] in changed
               for key in session.cache._lru.keys())


def _hit_rate_under_updates(session, requests, deltas, *,
                            naive: bool) -> tuple:
    """Steady-state hit rate of the measured window, updates interleaved,
    and per update the snapshot's doomed-entry count."""
    for nodes in requests:            # warm pass, excluded from the window
        session.predict(nodes)
    before = session.cache_stats()
    per_update = max(1, len(requests) // max(1, len(deltas)))
    position = 0
    doomed = []
    for index, nodes in enumerate(requests):
        if position < len(deltas) and index and index % per_update == 0:
            doomed.append(_doomed_entries(session, deltas[position]))
            session.apply_update(deltas[position])
            if naive:                 # whole-cache flush on every update
                session.cache.clear()
            position += 1
        session.predict(nodes)
    after = session.cache_stats()
    lookups = after.lookups - before.lookups
    hits = after.hits - before.hits
    return (hits / lookups if lookups else 0.0), doomed


def _sweep():
    quick = current_scale().name == "quick"
    num_nodes = 2_000 if quick else 10_000
    num_requests = 24 if quick else 96
    num_updates = 6 if quick else 24
    artifact = _export_artifact(_make_graph(num_nodes))
    graph = _make_graph(num_nodes)
    requests = _popular_requests(num_nodes, num_requests)
    deltas = _update_schedule(num_nodes, num_updates)

    rates = {}
    streamed = {}
    for mode, naive in (("scoped", False), ("naive", True)):
        session = BlockSession(artifact, graph.copy(), fanouts=FANOUT,
                               batch_size=REQUEST_SEEDS,
                               cache_size=CACHE_ENTRIES)
        if not naive:
            steps = _record_update_steps(session)
        rates[mode], doomed = _hit_rate_under_updates(
            session, requests, deltas, naive=naive)
        if not naive:
            evicted = [result for _, result in steps["invalidation"]]
            split = {label: float(np.median([seconds for seconds, _
                                             in records])) * 1e3
                     for label, records in steps.items()}
        streamed[mode] = (session, session.predict(requests[0]))

    # correctness spot check: both streamed sessions ended at the same
    # graph and serve bitwise what a fresh static session serves
    fresh = BlockSession(artifact, streamed["scoped"][0].graph.copy(),
                         fanouts=FANOUT, batch_size=REQUEST_SEEDS)
    reference = fresh.predict(requests[0])
    exact = all(bool(np.array_equal(logits, reference))
                for _, logits in streamed.values())
    return (num_nodes, num_requests, num_updates, rates, exact, split,
            evicted, doomed)


def test_streaming_scoped_vs_naive_invalidation(benchmark):
    (num_nodes, num_requests, num_updates, rates, exact, split, evicted,
     doomed) = run_once(benchmark, _sweep)

    print(f"\nstreaming warm-hit retention "
          f"({num_requests} x {REQUEST_SEEDS}-seed requests, "
          f"{len(evicted)} of {num_updates} scheduled updates applied, "
          f"fanout={FANOUT}, n={num_nodes})")
    print(f"{'invalidation':>14} {'steady hit rate':>16}")
    for mode in ("scoped", "naive"):
        print(f"{mode:>14} {rates[mode]:>16.1%}")
    print("scoped per-update split (median ms): " + ", ".join(
        f"{label} {ms:.3f}" for label, ms in split.items()))
    print(f"entries evicted per update: {evicted}")

    # the tentpole claims, asserted: bit-identical to fresh static serving,
    # and scoped invalidation strictly retains more warm traffic
    assert exact
    assert rates["scoped"] > rates["naive"]
    assert rates["scoped"] > 0.5
    # named eviction removes exactly what a scan of the keys would have
    assert evicted and evicted == doomed
