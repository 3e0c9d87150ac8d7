"""Fault injection against the shard router.

The failure contract (PR 8's per-request isolation, extended to process
death): a worker that dies mid-flight or overruns the per-request deadline
fails only the requests that depended on it (``RequestResult.error`` set,
``stats.failures`` counted), the router restarts the worker, and the next
request on that shard succeeds — no deadlock, no poisoned fleet.

Faults are armed deterministically via ``ShardRouter.inject_fault``: the
worker's *next predict* dies (``os._exit``) or hangs.  Halo ``rows_query``
service never triggers an armed fault, so with a sequential flush the
fault hits exactly the chunk owned by the armed shard.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.serving import ServingEngine
from repro.sharding import (ShardTimeoutError, ShardWorkerDied,
                            ShardWorkerError, ShardedBlockSession)


class TestWorkerDeath:
    def test_death_fails_only_that_request(self, sharded_session,
                                           shard_requests):
        engine = ServingEngine(sharded_session, max_batch_size=32)
        engine.submit(shard_requests[0])  # chunk owned by shard 0
        engine.submit(shard_requests[1])  # chunk owned by shard 1
        baseline = engine.flush()
        assert all(result.ok for result in baseline)

        sharded_session.router.inject_fault(1, "die_next")
        engine.submit(shard_requests[0])
        engine.submit(shard_requests[1])
        results = engine.flush()
        assert results[0].ok
        np.testing.assert_array_equal(results[0].logits, baseline[0].logits)
        assert isinstance(results[1].error, ShardWorkerDied)
        assert results[1].logits.shape[0] == 0
        assert engine.stats.failures == 1

        # the router restarted the worker; the shard serves again, and the
        # replacement's answers are bit-identical to the pre-crash ones
        assert sharded_session.router.restarts(1) == 1
        engine.submit(shard_requests[1])
        recovered = engine.flush()[0]
        assert recovered.ok
        np.testing.assert_array_equal(recovered.logits, baseline[1].logits)
        assert sharded_session.router.restarts(1) == 1  # no extra restart

    def test_direct_run_raises_and_recovers(self, sharded_session,
                                            shard_requests):
        baseline = sharded_session.run(shard_requests[0])
        sharded_session.router.inject_fault(0, "die_next")
        with pytest.raises(ShardWorkerError):
            sharded_session.run(shard_requests[0])
        after = sharded_session.run(shard_requests[0])
        np.testing.assert_array_equal(after.logits, baseline.logits)


class TestDeadline:
    def test_hang_fails_only_that_request(self, shard_artifact, parity_graph,
                                          shard_requests):
        with ShardedBlockSession(shard_artifact, parity_graph, shards=2,
                                 partition="hash", fanouts=3, batch_size=32,
                                 seed=7, request_deadline_s=1.0) as session:
            engine = ServingEngine(session, max_batch_size=32)
            engine.submit(shard_requests[0])
            baseline = engine.flush()[0]
            assert baseline.ok

            session.router.inject_fault(0, "hang_next", 60.0)
            engine.submit(shard_requests[0])
            engine.submit(shard_requests[1])
            results = engine.flush()
            assert isinstance(results[0].error, ShardTimeoutError)
            assert results[1].ok
            assert engine.stats.failures == 1

            # the hung worker was killed and replaced
            assert session.router.restarts(0) == 1
            engine.submit(shard_requests[0])
            recovered = engine.flush()[0]
            assert recovered.ok
            np.testing.assert_array_equal(recovered.logits, baseline.logits)


class TestConcurrency:
    def test_no_deadlock_under_concurrent_submitters(self, sharded_session,
                                                     shard_requests):
        """Several threads submit while a worker dies: every call returns
        (success or a shard error), nothing hangs, and the fleet recovers."""
        baseline = [sharded_session.run(nodes) for nodes in shard_requests]
        sharded_session.router.inject_fault(1, "die_next")
        outcomes = []
        lock = threading.Lock()

        def client(nodes):
            try:
                run = sharded_session.run(nodes)
                outcome = ("ok", run.logits)
            except ShardWorkerError:
                outcome = ("failed", None)
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=client, args=(nodes,), daemon=True)
                   for nodes in shard_requests * 3]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), \
            "a submitter deadlocked"
        assert len(outcomes) == len(threads)
        assert any(status == "failed" for status, _ in outcomes)

        # full recovery: both shards serve bit-identical answers again
        for nodes, reference in zip(shard_requests, baseline):
            after = sharded_session.run(nodes)
            np.testing.assert_array_equal(after.logits, reference.logits)


class TestStartupFailure:
    """A fleet that cannot start says so at construction — it is not
    respawned forever behind a session that looks healthy."""

    @staticmethod
    def _configs(artifact, graph, **overrides):
        from repro.graphs.partition import partition_graph
        from repro.graphs.sampling import degree_state
        from repro.sharding import WorkerConfig

        _, row_weight, inv_sqrt = degree_state(graph)
        settings = {"artifact": artifact, "graph": graph, "fanouts": 3,
                    "batch_size": 32, "seed": 7, "cache_size": 0,
                    "cache_bytes": None, "row_weight": row_weight,
                    "inv_sqrt": inv_sqrt,
                    **overrides}
        assignment = partition_graph(graph, 2, strategy="hash")
        return [WorkerConfig(shard=shard, assignment=assignment, **settings)
                for shard in (0, 1)]

    @staticmethod
    def _failed_router(configs):
        from repro.sharding import ShardRouter

        router = ShardRouter.__new__(ShardRouter)  # kept to read restarts()
        with pytest.raises(ShardWorkerError, match="failed to start") as info:
            router.__init__(configs, request_deadline_s=15.0)
        return router, str(info.value)

    def test_bad_fanouts_raise_what_block_session_raises(self, shard_artifact,
                                                         parity_graph):
        from repro.serving import BlockSession

        assert shard_artifact.total_hops == 2
        with pytest.raises(ValueError) as expected:
            BlockSession(shard_artifact, parity_graph, fanouts=[3])
        with pytest.raises(ValueError) as raised:
            ShardedBlockSession(shard_artifact, parity_graph, shards=2,
                                fanouts=[3])
        assert str(raised.value) == str(expected.value)
        assert multiprocessing.active_children() == []

    def test_worker_init_error_raises_from_the_constructor(
            self, shard_artifact, parity_graph):
        """The router is handed what the session would have refused: the
        workers fail to build, nothing is restarted, no child is left."""
        router, message = self._failed_router(
            self._configs(shard_artifact, parity_graph, fanouts=[3]))
        assert "expected 2 fanouts (one per layer), got 1" in message
        assert [router.restarts(shard) for shard in (0, 1)] == [0, 0]
        assert multiprocessing.active_children() == []
        with pytest.raises(ShardWorkerError):
            router.submit_chunk(np.arange(4, dtype=np.int64))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the dying stand-in graph is inherited, not pickled")
    def test_death_before_ready_is_not_restarted(self, shard_artifact,
                                                 parity_graph):
        class DiesWhenRead:
            @property
            def edge_index(self):
                os._exit(23)

        configs = self._configs(shard_artifact, parity_graph)
        for config in configs:
            config.graph = DiesWhenRead()
        router, message = self._failed_router(configs)
        assert "died before it was ready" in message
        assert [router.restarts(shard) for shard in (0, 1)] == [0, 0]
        assert multiprocessing.active_children() == []
