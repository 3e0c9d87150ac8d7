"""Temporal traces: determinism, applicability, and live stream replay."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.loadgen import (
    LOADTEST_REQUIRED_METRICS,
    UPDATE_KINDS,
    TemporalConfig,
    TrafficConfig,
    generate_temporal_trace,
    metrics_from_stream,
    run_stream,
)
from repro.serving import AsyncServingEngine, BlockSession

NUM_NODES = 64
NUM_CLASSES = 3
NUM_FEATURES = 8


def _config(num_requests=24, update_every=6, seed=0, **overrides):
    traffic = TrafficConfig(
        num_nodes=NUM_NODES, seeds_per_request=4, arrival="fixed",
        qps=500.0, num_requests=num_requests, seed=3)
    return TemporalConfig(traffic=traffic, update_every=update_every,
                          num_features=NUM_FEATURES, seed=seed, **overrides)


class TestTraceGeneration:
    def test_same_config_same_trace_bit_for_bit(self):
        one = generate_temporal_trace(_config())
        two = generate_temporal_trace(_config())
        assert len(one.events) == len(two.events)
        for a, b in zip(one.events, two.events):
            assert a.kind == b.kind
            assert a.arrival == b.arrival
            if a.is_query:
                np.testing.assert_array_equal(a.nodes, b.nodes)
            else:
                for field in ("added_edges", "added_weights",
                              "removed_edges", "feature_nodes", "features"):
                    left = getattr(a.delta, field)
                    right = getattr(b.delta, field)
                    assert (left is None) == (right is None)
                    if left is not None:
                        np.testing.assert_array_equal(left, right)

    def test_update_placement_and_kind_cycle(self):
        trace = generate_temporal_trace(_config(num_requests=24,
                                                update_every=6))
        assert trace.num_queries == 24
        updates = [event for event in trace.events if not event.is_query]
        assert trace.num_updates == len(updates) == 3
        assert [event.kind for event in updates] == list(UPDATE_KINDS)
        # update events inherit the arrival of the query they precede
        for position, event in enumerate(trace.events[:-1]):
            if not event.is_query:
                follower = trace.events[position + 1]
                assert follower.is_query
                assert follower.arrival == event.arrival
        # arrivals are globally non-decreasing
        arrivals = [event.arrival for event in trace.events]
        assert arrivals == sorted(arrivals)

    def test_zero_update_every_degenerates_to_plain_traffic(self):
        trace = generate_temporal_trace(_config(update_every=0))
        assert trace.num_updates == 0
        assert trace.num_queries == 24

    def test_removals_draw_only_from_added_edges(self):
        """Every delta of a long trace applies cleanly to a base graph the
        generator has never seen — removals can't name absent edges."""
        from repro.graphs.graph import Graph

        config = _config(num_requests=120, update_every=4)
        trace = generate_temporal_trace(config)
        kinds = [event.kind for event in trace.events if not event.is_query]
        assert "remove_edges" in kinds
        rng = np.random.default_rng(9)
        graph = Graph(
            rng.random((NUM_NODES, NUM_FEATURES)).astype(np.float32),
            rng.integers(0, NUM_NODES, size=(2, 128)))
        for event in trace.events:
            if not event.is_query:
                graph.apply_delta(event.delta)
        assert graph.version == trace.num_updates

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _config(update_every=-1)
        with pytest.raises(ValueError):
            _config(edges_per_update=0)
        with pytest.raises(ValueError):
            _config(feature_nodes_per_update=NUM_NODES + 1)


class UpdatableStubSession:
    """Serving stub with version counting, mirroring the harness stubs."""

    supports_updates = True
    request_invariant_cost = False

    def __init__(self):
        self.graph = SimpleNamespace(num_nodes=NUM_NODES, version=0)
        self.applied = []
        self._lock = threading.Lock()

    def run(self, nodes):
        nodes = np.asarray(nodes)
        return SimpleNamespace(
            logits=np.zeros((nodes.size, NUM_CLASSES)),
            giga_bit_operations=lambda: 1e-3 * nodes.size)

    def apply_update(self, delta):
        with self._lock:
            self.graph.version += 1
            self.applied.append(delta)
            return self.graph.version


class TestRunStream:
    def test_counts_updates_and_final_version(self):
        session = UpdatableStubSession()
        trace = generate_temporal_trace(_config(num_requests=24,
                                                update_every=6))
        with AsyncServingEngine(session, max_batch=32) as engine:
            result = run_stream(engine, trace)
        assert result.updates == trace.num_updates == 3
        assert result.final_version == 3
        assert len(session.applied) == 3
        run = result.load
        assert run.requests == trace.num_queries
        assert run.failures == 0
        assert (run.latencies_seconds > 0).all()

    def test_warmup_events_excluded_from_window(self):
        session = UpdatableStubSession()
        trace = generate_temporal_trace(_config(num_requests=24,
                                                update_every=6))
        # 8 warm-up events = 7 queries + the position-6 update
        with AsyncServingEngine(session, max_batch=32) as engine:
            result = run_stream(engine, trace, warmup_events=8)
        assert result.load.requests == trace.num_queries - 7
        # warm-up updates still advanced the graph and are counted
        assert result.updates == trace.num_updates
        assert result.final_version == trace.num_updates

    def test_metrics_cover_loadtest_schema(self):
        session = UpdatableStubSession()
        trace = generate_temporal_trace(_config())
        with AsyncServingEngine(session, max_batch=32) as engine:
            result = run_stream(engine, trace)
        metrics = metrics_from_stream(result, deadline_ms=50.0)
        assert LOADTEST_REQUIRED_METRICS <= metrics.keys()
        assert metrics["updates"] == result.updates
        assert metrics["final_version"] == result.final_version

    def test_rejects_sessions_without_update_support(self):
        static = UpdatableStubSession()
        static.supports_updates = False
        with AsyncServingEngine(static, max_batch=32) as engine:
            with pytest.raises(TypeError, match="does not support"):
                run_stream(engine,
                           generate_temporal_trace(_config(update_every=6)))

    def test_needs_a_measured_query(self):
        from repro.loadgen import TemporalEvent, TemporalTrace
        from repro.streaming import GraphDelta

        session = UpdatableStubSession()
        # an updates-only stream has nothing to measure
        events = (TemporalEvent(arrival=0.0, kind="add_edges",
                                delta=GraphDelta()),)
        trace = TemporalTrace(events=events, config=_config())
        with AsyncServingEngine(session, max_batch=32) as engine:
            with pytest.raises(ValueError, match="at least one query"):
                run_stream(engine, trace)


class TestStreamingWarmupBoundary:
    def test_hit_rate_delta_stays_non_negative_under_updates(
            self, parity_graph, parity_artifact):
        """Satellite contract: invalidation during the measured window must
        never drive the windowed cache delta negative — eviction keeps the
        logical hit/miss counters untouched."""
        artifact = parity_artifact("gcn", 1)
        session = BlockSession(artifact, parity_graph.copy(), fanouts=None,
                               batch_size=parity_graph.num_nodes,
                               cache_size=65536)
        traffic = TrafficConfig(
            num_nodes=parity_graph.num_nodes, seeds_per_request=4,
            arrival="fixed", qps=500.0, num_requests=30, seed=3)
        config = TemporalConfig(traffic=traffic, update_every=4,
                                edges_per_update=2,
                                feature_nodes_per_update=1,
                                num_features=parity_graph.num_features,
                                seed=1)
        trace = generate_temporal_trace(config)
        assert trace.num_updates >= 3
        with AsyncServingEngine(session, max_batch=64) as engine:
            result = run_stream(engine, trace, warmup_events=10)
        run = result.load
        assert run.cache_hits is not None and run.cache_hits >= 0
        assert run.cache_lookups is not None and run.cache_lookups >= 0
        assert 0.0 <= run.cache_hit_rate <= 1.0
        assert run.failures == 0
        assert result.updates >= 1
