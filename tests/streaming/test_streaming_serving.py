"""Streaming updates through the serving engines: ordering, atomicity, API."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.serving import AsyncServingEngine, BlockSession, FullGraphSession
from repro.serving.engine import ServingEngine
from repro.streaming import GraphDelta


def _delta(graph, seed=0):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, graph.num_nodes, size=(2, 3))
    weights = rng.random(3).astype(np.float32) + np.float32(0.5)
    return GraphDelta(added_edges=edges, added_weights=weights)


@pytest.fixture()
def block_session(parity_graph, parity_artifact):
    return BlockSession(parity_artifact("gcn", 1), parity_graph.copy(),
                        fanouts=None, batch_size=parity_graph.num_nodes,
                        cache_size=4096)


class TestSyncEngineUpdates:
    def test_update_is_visible_to_the_next_flush(self, block_session,
                                                 parity_graph,
                                                 parity_artifact):
        """Requests queued before the update are served after it: the whole
        flush runs at the post-update version."""
        engine = ServingEngine(block_session, max_batch_size=64)
        engine.submit([0, 1, 2])
        delta = _delta(block_session.graph)
        engine.apply_update(delta)
        results = engine.flush()
        assert block_session.graph.version == 1
        assert engine.stats.updates == 1
        updated = parity_graph.copy()
        updated.apply_delta(delta)
        fresh = BlockSession(parity_artifact("gcn", 1), updated, fanouts=None,
                             batch_size=updated.num_nodes)
        np.testing.assert_array_equal(results[0].logits,
                                      fresh.predict([0, 1, 2]))
        engine.close()

    def test_updates_apply_with_an_empty_queue(self, block_session):
        engine = ServingEngine(block_session, max_batch_size=64)
        engine.apply_update(_delta(block_session.graph))
        engine.apply_update(_delta(block_session.graph, seed=1))
        assert engine.flush() == []
        assert block_session.graph.version == 2
        assert engine.stats.updates == 2
        engine.close()

    def test_apply_update_returns_new_version(self, block_session):
        engine = ServingEngine(block_session, max_batch_size=64)
        assert engine.apply_update(_delta(block_session.graph)) == 1
        assert engine.apply_update(_delta(block_session.graph, seed=1)) == 2
        engine.close()

    def test_rejects_sessions_without_update_support(self):
        stub = SimpleNamespace(supports_updates=False)
        engine = ServingEngine(stub, max_batch_size=64)
        with pytest.raises(TypeError, match="does not support"):
            engine.apply_update(GraphDelta())

    def test_full_graph_session_supports_updates(self, parity_graph,
                                                 parity_artifact):
        session = FullGraphSession(parity_artifact("gcn", 1),
                                   parity_graph.copy())
        engine = ServingEngine(session, max_batch_size=64)
        assert engine.apply_update(_delta(session.graph)) == 1
        assert session.graph.version == 1
        engine.close()


class TestAsyncEngineUpdates:
    def test_update_future_resolves_to_version(self, block_session):
        with AsyncServingEngine(block_session, max_batch=64) as engine:
            first = engine.submit_update(_delta(block_session.graph))
            assert first.result(timeout=10.0) == 1
            second = engine.submit_update(
                _delta(block_session.graph, seed=1))
            assert second.result(timeout=10.0) == 2
        assert engine.stats.updates == 2

    def test_queries_after_update_see_new_graph(self, block_session):
        with AsyncServingEngine(block_session, max_batch=64) as engine:
            before = engine.submit([0, 1]).result(timeout=10.0)
            engine.submit_update(_delta(block_session.graph)) \
                .result(timeout=10.0)
            after = engine.submit([0, 1]).result(timeout=10.0)
        assert before.logits.shape == after.logits.shape
        assert block_session.graph.version == 1

    def test_pending_updates_drain_on_close(self, block_session):
        engine = AsyncServingEngine(block_session, max_batch=64)
        future = engine.submit_update(_delta(block_session.graph))
        engine.close()
        assert future.result(timeout=1.0) == 1

    def test_update_failure_sets_exception(self, block_session):
        absent = np.asarray([[block_session.graph.num_nodes - 1],
                             [block_session.graph.num_nodes - 1]])
        # craft a pair that is certainly absent: remove it twice
        delta = GraphDelta(removed_edges=absent)
        with AsyncServingEngine(block_session, max_batch=64) as engine:
            engine.submit_update(
                GraphDelta(added_edges=absent)).result(timeout=10.0)
            engine.submit_update(delta).result(timeout=10.0)  # removes it
            failing = engine.submit_update(delta)              # now absent
            with pytest.raises(ValueError, match="absent edge"):
                failing.result(timeout=10.0)
            # the engine keeps serving after a failed update
            assert engine.submit([0]).result(timeout=10.0).logits.shape[0] == 1

    def test_rejects_sessions_without_update_support(self, block_session):
        with AsyncServingEngine(block_session, max_batch=64) as engine:
            # shadow the class attribute on the instance: the rejection
            # must happen on the caller thread, before dispatch
            block_session.supports_updates = False
            with pytest.raises(TypeError, match="does not support"):
                engine.submit_update(GraphDelta())
