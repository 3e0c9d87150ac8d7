"""Concurrency tests: worker-pool flushes, work-conserving dispatch, race-free
stats."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serving import (
    AsyncServingEngine,
    BlockSession,
    QuantizedArtifact,
    ServingEngine,
)


@pytest.fixture(scope="module")
def block_session_factory(served_models, small_cora):
    artifact = QuantizedArtifact.from_model(served_models["gcn"])

    def factory(**kwargs):
        options = dict(fanouts=4, batch_size=16, seed=0)
        options.update(kwargs)
        return BlockSession(artifact, small_cora, **options)

    return factory


class TestWorkerPoolFlush:
    def test_worker_pool_matches_synchronous_engine(self, block_session_factory):
        requests = [np.arange(0, 20), np.arange(15, 45), np.asarray([3]),
                    np.arange(30, 60)]
        serial = ServingEngine(block_session_factory(), max_batch_size=8)
        pooled = ServingEngine(block_session_factory(), max_batch_size=8,
                               workers=4)
        for engine in (serial, pooled):
            for nodes in requests:
                engine.submit(nodes)
        serial_results = serial.flush()
        pooled_results = pooled.flush()
        assert serial.stats.micro_batches == pooled.stats.micro_batches
        for result_a, result_b in zip(serial_results, pooled_results):
            assert result_a.request_id == result_b.request_id
            np.testing.assert_array_equal(result_a.logits, result_b.logits)
            assert result_b.giga_bit_operations == pytest.approx(
                result_a.giga_bit_operations)

    def test_worker_pool_with_shared_cache_is_exact(self, block_session_factory):
        reference = block_session_factory()
        engine = ServingEngine(block_session_factory(cache_size=65536),
                               max_batch_size=8, workers=4)
        nodes = np.arange(0, 48)
        for _ in range(2):                 # second flush hits the warm cache
            engine.submit(nodes)
            result = engine.flush()[0]
            np.testing.assert_array_equal(result.logits,
                                          reference.predict(nodes))
        assert engine.session.cache_stats().hits > 0

    def test_rejects_bad_worker_count(self, block_session_factory):
        with pytest.raises(ValueError):
            ServingEngine(block_session_factory(), workers=0)


class TestAsyncServingEngine:
    def test_concurrent_submissions_match_synchronous_outputs(
            self, block_session_factory):
        reference = block_session_factory()
        num_threads = 8
        requests = [np.arange(start, start + 12) % 60
                    for start in range(num_threads)]
        outputs = [None] * num_threads

        with AsyncServingEngine(block_session_factory(cache_size=65536),
                                max_batch=32, workers=4) as engine:
            def worker(position: int) -> None:
                outputs[position] = engine.submit(
                    requests[position]).result(timeout=30)

            threads = [threading.Thread(target=worker, args=(position,))
                       for position in range(num_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        for nodes, result in zip(requests, outputs):
            np.testing.assert_array_equal(result.nodes, nodes)
            np.testing.assert_array_equal(result.logits,
                                          reference.predict(nodes))
            assert result.latency_seconds > 0.0

    def test_stats_counters_are_race_free(self, block_session_factory):
        num_threads, per_thread = 6, 5
        with AsyncServingEngine(block_session_factory(),
                                max_batch=16) as engine:
            def worker(seed: int) -> None:
                rng = np.random.default_rng(seed)
                for _ in range(per_thread):
                    nodes = rng.choice(60, size=3, replace=False)
                    engine.submit(nodes).result(timeout=30)

            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(num_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = engine.stats
        assert stats.requests == num_threads * per_thread
        assert stats.nodes == num_threads * per_thread * 3
        assert stats.giga_bit_operations > 0.0

    @pytest.mark.parametrize("max_batch, nodes", [
        (10_000, [1, 2, 3]),           # far below a micro-batch
        (4, list(range(8))),           # two full micro-batches
    ])
    def test_idle_dispatcher_flushes_lone_request(self, block_session_factory,
                                                  max_batch, nodes):
        # max_wait_ms is accepted but never waited on: an idle dispatcher
        # serves a lone request at once, however small it is.
        with AsyncServingEngine(block_session_factory(), max_batch=max_batch,
                                max_wait_ms=60_000.0) as engine:
            result = engine.submit(nodes).result(timeout=10)
        np.testing.assert_array_equal(result.nodes, nodes)
        assert result.logits.shape[0] == len(nodes)
        assert 0.0 < result.latency_seconds < 10.0

    def test_requests_during_a_flush_share_the_next_flush(
            self, block_session_factory, gated_session_class):
        reference = block_session_factory()
        session = gated_session_class(block_session_factory())
        requests = [[1, 2, 3], [3, 4], [2, 5, 1]]
        with AsyncServingEngine(session, max_batch=10_000) as engine:
            held = session.hold(engine)
            futures = [engine.submit(nodes) for nodes in requests]
            engine.flush_now()             # a wake only: nothing flushes
            assert not any(future.done() for future in futures)
            session.release()
            results = [future.result(timeout=10) for future in futures]
            held.result(timeout=10)
        # exactly one more flush, one run, each shared seed executed once
        assert session.flushes == [1, len(requests)]
        assert len(session.batches) == 2
        np.testing.assert_array_equal(session.batches[1], [1, 2, 3, 4, 5])
        for nodes, result in zip(requests, results):
            np.testing.assert_array_equal(result.logits,
                                          reference.predict(nodes))

    def test_close_timeout_leaves_no_pool_behind(self, block_session_factory,
                                                 gated_session_class):
        def worker_threads():
            return {thread for thread in threading.enumerate()
                    if thread.name.startswith("repro-serving-worker")}

        before = worker_threads()
        session = gated_session_class(block_session_factory())
        engine = AsyncServingEngine(session, max_batch=4, workers=2)
        held = session.hold(engine, nodes=np.arange(8))
        queued = engine.submit(np.arange(8, 16))
        release = threading.Timer(0.5, session.release)
        release.start()
        try:
            start = time.perf_counter()
            engine.close(timeout=0.05)
            # close() neither waits for the held flush to end...
            assert time.perf_counter() - start < 0.4
        finally:
            release.join()
        # ...nor stops the drain: both requests are still served
        assert held.result(timeout=10).logits.shape[0] == 8
        assert queued.result(timeout=10).logits.shape[0] == 8
        engine.close()
        assert session.flushes == [1, 1]
        # the drain flush's worker pool was shut down with the engine
        assert worker_threads() - before == set()

    def test_close_drains_pending_requests(self, block_session_factory,
                                           gated_session_class):
        session = gated_session_class(block_session_factory())
        engine = AsyncServingEngine(session, max_batch=10_000)
        held = session.hold(engine)
        futures = [engine.submit([node]) for node in range(5)]
        session.release()
        engine.close()
        for future in [held, *futures]:
            assert future.result(timeout=5).logits.shape[0] == 1
        # the five queued requests were drained by one flush
        assert session.flushes == [1, 5]
        with pytest.raises(RuntimeError):
            engine.submit([0])

    def test_reset_stats_separates_measurement_windows(
            self, block_session_factory):
        with AsyncServingEngine(block_session_factory(),
                                max_batch=16) as engine:
            # warm-up traffic; waiting on the futures commits the counters
            for node in range(4):
                engine.submit([node]).result(timeout=30)
            snapshot = engine.reset_stats()
            assert snapshot.requests == 4
            assert engine.stats.requests == 0
            # the measured window counts only post-reset traffic
            futures = [engine.submit([node]) for node in range(4, 10)]
            for future in futures:
                future.result(timeout=30)
            assert engine.stats.requests == 6
            assert engine.stats.nodes == 6

    def test_submit_validates_on_caller_thread(self, block_session_factory):
        with AsyncServingEngine(block_session_factory()) as engine:
            with pytest.raises(ValueError):
                engine.submit([])
            with pytest.raises(ValueError):
                engine.submit([10_000_000])

    def test_micro_batch_failure_only_fails_affected_futures(
            self, poisoned_session_class, gated_session_class):
        session = gated_session_class(poisoned_session_class({13}))
        with AsyncServingEngine(session, max_batch=4) as engine:
            held = session.hold(engine)
            good = engine.submit(np.arange(0, 4))
            bad = engine.submit(np.asarray([12, 13, 14, 15]))
            also_good = engine.submit(np.arange(20, 24))
            session.release()
            # only the future whose micro-batch raised sees the exception
            with pytest.raises(RuntimeError, match="poisoned"):
                bad.result(timeout=30)
            for future in (good, also_good):
                result = future.result(timeout=30)
                assert result.ok
                assert result.logits.shape[0] == 4
                assert result.latency_seconds > 0.0
            assert held.result(timeout=30).ok
            stats = engine.stats
        # the three requests shared one flush of three micro-batches
        assert session.flushes == [1, 3]
        assert len(session.batches) == 4
        assert stats.requests == 4
        assert stats.failures == 1
