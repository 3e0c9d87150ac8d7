"""Tests for the coalescing serving engine."""

import numpy as np
import pytest

from repro.serving import FullGraphSession, QuantizedArtifact, ServingEngine


@pytest.fixture(scope="module")
def gcn_session(served_models, small_cora):
    return FullGraphSession(QuantizedArtifact.from_model(served_models["gcn"]),
                            small_cora)


class TestServingEngine:
    def test_coalesced_requests_match_direct_serving(self, gcn_session):
        engine = ServingEngine(gcn_session, max_batch_size=4)
        requests = [np.asarray([0, 1, 2, 3, 4]), np.asarray([9]),
                    np.arange(10, 17)]
        ids = [engine.submit(nodes) for nodes in requests]
        results = engine.flush()

        assert [result.request_id for result in results] == ids
        for result, nodes in zip(results, requests):
            np.testing.assert_array_equal(result.nodes, nodes)
            # the full-graph session is deterministic, so coalesced micro-
            # batching must not change any request's logits
            np.testing.assert_array_equal(result.logits,
                                          gcn_session.predict(nodes))
            assert result.latency_seconds >= 0.0
            assert result.giga_bit_operations > 0.0
            assert result.classes.shape == nodes.shape

    def test_stats_accumulate(self, gcn_session):
        engine = ServingEngine(gcn_session, max_batch_size=8)
        engine.submit([0, 1, 2])
        engine.submit([3])
        results = engine.flush()
        assert engine.stats.requests == 2
        assert engine.stats.nodes == 4
        assert engine.stats.micro_batches == 1  # 4 seeds coalesced into one
        assert engine.stats.giga_bit_operations == pytest.approx(
            sum(result.giga_bit_operations for result in results))
        assert engine.stats.throughput() > 0.0

    def test_reset_stats_opens_fresh_window(self, gcn_session):
        engine = ServingEngine(gcn_session, max_batch_size=8)
        engine.submit([0, 1, 2])
        engine.flush()
        snapshot = engine.reset_stats()
        # the closed window's counters come back as a snapshot...
        assert snapshot.requests == 1
        assert snapshot.nodes == 3
        assert snapshot.giga_bit_operations > 0.0
        # ...and the live counters restart from zero
        assert engine.stats.requests == 0
        assert engine.stats.nodes == 0
        assert engine.stats.seconds == 0.0
        engine.submit([4])
        engine.flush()
        # the new window counts only post-reset traffic
        assert engine.stats.requests == 1
        assert engine.stats.nodes == 1
        # and the snapshot is detached from the live stats object
        assert snapshot.requests == 1

    def test_reset_stats_keeps_pending_requests(self, gcn_session):
        engine = ServingEngine(gcn_session, max_batch_size=8)
        engine.submit([0, 1])
        engine.reset_stats()
        assert engine.pending == 1
        engine.flush()
        # pending-at-reset requests land in the new window
        assert engine.stats.requests == 1
        assert engine.stats.nodes == 2

    def test_flush_without_requests(self, gcn_session):
        assert ServingEngine(gcn_session).flush() == []

    def test_predict_keeps_backlog_pending(self, gcn_session):
        engine = ServingEngine(gcn_session, max_batch_size=16)
        engine.submit([5, 6])
        logits = engine.predict([0, 1, 2])
        np.testing.assert_array_equal(logits, gcn_session.predict([0, 1, 2]))
        assert engine.pending == 1  # the submitted request is still queued
        assert len(engine.flush()) == 1

    def test_full_graph_flush_runs_once(self, gcn_session):
        # a full-graph pass costs the same whatever the request size, so the
        # engine must not re-run it per micro-batch
        engine = ServingEngine(gcn_session, max_batch_size=4)
        engine.submit(np.arange(13))
        engine.submit([20, 21])
        engine.flush()
        assert engine.stats.micro_batches == 1

    def test_block_flush_micro_batches(self, served_models, small_cora):
        from repro.serving import BlockSession
        session = BlockSession(QuantizedArtifact.from_model(served_models["gcn"]),
                               small_cora, fanouts=None, batch_size=4)
        engine = ServingEngine(session, max_batch_size=4)
        engine.submit(np.arange(10))
        engine.flush()
        assert engine.stats.micro_batches == 3  # ceil(10 / 4)

    def test_rejects_bad_inputs(self, gcn_session):
        engine = ServingEngine(gcn_session)
        with pytest.raises(ValueError):
            engine.submit([])
        with pytest.raises(ValueError):
            ServingEngine(gcn_session, max_batch_size=0)

    def test_rejects_out_of_range_nodes_at_submission(self, gcn_session):
        engine = ServingEngine(gcn_session)
        engine.submit([0, 1])  # a valid request is already pending
        num_nodes = gcn_session.graph.num_nodes
        with pytest.raises(ValueError):
            engine.submit([0, num_nodes])
        with pytest.raises(ValueError):
            engine.submit([-1])
        # the malformed submissions must not poison the pending flush
        assert engine.pending == 1
        assert len(engine.flush()) == 1


NUM_CLASSES = 3


class TestFlushFailureIsolation:
    """A raising micro-batch fails its requests only — the rest complete."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_unaffected_requests_complete(self, poisoned_session_class,
                                          workers):
        engine = ServingEngine(poisoned_session_class({13}), max_batch_size=4,
                               workers=workers)
        requests = [np.arange(0, 4), np.asarray([12, 13, 14, 15]),
                    np.arange(20, 24)]
        for nodes in requests:
            engine.submit(nodes)
        results = engine.flush()
        engine.close()

        assert [result.ok for result in results] == [True, False, True]
        for result, nodes in zip(results, requests):
            np.testing.assert_array_equal(result.nodes, nodes)
        # the survivors carry full, correct logits and attributed work
        for index in (0, 2):
            np.testing.assert_array_equal(
                results[index].logits,
                np.tile(requests[index][:, None].astype(np.float64),
                        (1, NUM_CLASSES)))
            assert results[index].giga_bit_operations > 0.0
            assert results[index].latency_seconds > 0.0
        # the failed request carries the exception and empty logits
        failed = results[1]
        assert isinstance(failed.error, RuntimeError)
        assert "13" in str(failed.error)
        assert failed.logits.shape == (0, NUM_CLASSES)
        assert failed.giga_bit_operations == 0.0
        assert "error=RuntimeError" in repr(failed)
        # stats stay consistent: everything attempted is counted once
        assert engine.stats.requests == 3
        assert engine.stats.nodes == 12
        assert engine.stats.micro_batches == 3
        assert engine.stats.failures == 1

    def test_request_spanning_a_failed_chunk_fails_whole(
            self, poisoned_session_class):
        # 8 seeds over two micro-batches; the second micro-batch raises, so
        # the request fails even though its first chunk ran fine.
        engine = ServingEngine(poisoned_session_class({7}), max_batch_size=4)
        engine.submit(np.arange(8))
        result = engine.flush()[0]
        assert not result.ok
        assert result.logits.shape[0] == 0
        assert engine.stats.failures == 1
        assert engine.stats.micro_batches == 2

    def test_all_chunks_failing_reports_zero_width_logits(
            self, poisoned_session_class):
        engine = ServingEngine(poisoned_session_class({1, 5}),
                               max_batch_size=4)
        engine.submit([1, 2])
        engine.submit([5, 6])
        results = engine.flush()
        assert all(not result.ok for result in results)
        # no chunk succeeded, so the logits width is unknown: (0, 0)
        assert all(result.logits.shape == (0, 0) for result in results)
        assert engine.stats.failures == 2

    def test_predict_raises_the_request_error(self, poisoned_session_class):
        engine = ServingEngine(poisoned_session_class({3}), max_batch_size=8)
        with pytest.raises(RuntimeError, match="poisoned"):
            engine.predict([2, 3])
        # a clean predict still works afterwards
        logits = engine.predict([2, 4])
        np.testing.assert_array_equal(
            logits, np.tile(np.asarray([[2.0], [4.0]]), (1, NUM_CLASSES)))

    def test_failure_only_window_keeps_counters_consistent(
            self, poisoned_session_class):
        engine = ServingEngine(poisoned_session_class({0}), max_batch_size=4)
        engine.submit([0])
        engine.flush()
        snapshot = engine.reset_stats()
        assert snapshot.requests == snapshot.failures == 1
        assert engine.stats.failures == 0  # reset zeroes the new counter


class CountingSession:
    """Delegating wrapper that counts what the engine actually executes."""

    def __init__(self, inner):
        self._inner = inner
        self.graph = inner.graph
        self.request_invariant_cost = inner.request_invariant_cost
        self.runs = 0
        self.seeds_executed = 0

    def run(self, nodes):
        nodes = np.asarray(nodes)
        self.runs += 1
        self.seeds_executed += int(nodes.size)
        return self._inner.run(nodes)


class TestSeedDedup:
    """Cross-request seed dedup: each distinct seed sampled once per flush,
    logits scattered back per request — bitwise equal to not deduplicating
    (sampling is a pure function of the seed, and the integer path is
    batch-composition invariant)."""

    #: Heavily overlapping traffic: 12 requested seeds, 7 distinct.
    OVERLAPPING = [np.asarray([0, 1, 2, 3]), np.asarray([2, 3, 4, 5]),
                   np.asarray([5, 1, 9, 0])]

    @pytest.fixture()
    def block_session(self, served_models, small_cora):
        from repro.serving import BlockSession
        return BlockSession(QuantizedArtifact.from_model(served_models["gcn"]),
                            small_cora, fanouts=3, batch_size=8, seed=7)

    def _flush(self, session, dedup: bool):
        engine = ServingEngine(session, max_batch_size=8, dedup_seeds=dedup)
        for nodes in self.OVERLAPPING:
            engine.submit(nodes)
        return engine, engine.flush()

    def test_dedup_matches_non_dedup_bitwise(self, block_session):
        _, plain = self._flush(block_session, dedup=False)
        _, deduped = self._flush(block_session, dedup=True)
        for ours, theirs in zip(deduped, plain):
            assert ours.ok and theirs.ok
            np.testing.assert_array_equal(ours.nodes, theirs.nodes)
            np.testing.assert_array_equal(ours.logits, theirs.logits)

    def test_dedup_executes_fewer_seeds(self, block_session):
        plain_counter = CountingSession(block_session)
        plain_engine, _ = self._flush(plain_counter, dedup=False)
        dedup_counter = CountingSession(block_session)
        dedup_engine, _ = self._flush(dedup_counter, dedup=True)

        requested = sum(nodes.size for nodes in self.OVERLAPPING)
        distinct = np.unique(np.concatenate(self.OVERLAPPING)).size
        assert plain_counter.seeds_executed == requested
        assert dedup_counter.seeds_executed == distinct
        assert dedup_counter.runs < plain_counter.runs
        assert dedup_engine.stats.micro_batches < plain_engine.stats.micro_batches
        # accounting still counts what callers asked for, not what ran
        assert dedup_engine.stats.nodes == requested

    def test_duplicates_within_a_request_are_preserved(self, block_session):
        engine = ServingEngine(block_session, max_batch_size=8)
        engine.submit(np.asarray([4, 4, 7]))
        result = engine.flush()[0]
        assert result.logits.shape[0] == 3
        np.testing.assert_array_equal(result.logits[0], result.logits[1])
        np.testing.assert_array_equal(
            result.logits, block_session.predict(np.asarray([4, 4, 7])))

    def test_shared_failed_seed_fails_every_dependent(
            self, poisoned_session_class):
        # both requests asked for the poisoned seed 5; its (single, shared)
        # micro-batch failing must fail them both — the third request's
        # seeds land in later micro-batches and survive
        engine = ServingEngine(poisoned_session_class({5}), max_batch_size=2)
        engine.submit([1, 5])
        engine.submit([5, 9])
        engine.submit([2, 3])
        results = engine.flush()
        assert [result.ok for result in results] == [False, False, True]
        assert engine.stats.failures == 2
