"""Behaviour of the sharded session beyond raw parity (which lives in
``tests/parity_matrix.py::TestShardParityMatrix``): restricted worker
views, cache aggregation, engine integration, argument validation."""

import numpy as np
import pytest

from repro.cache import BlockCache
from repro.graphs.partition import partition_graph
from repro.graphs.sampling import NeighborSampler, _salt, degree_state
from repro.serving import AsyncServingEngine, BlockSession, ServingEngine
from repro.sharding import (ShardSampler, ShardWorkerSession,
                            ShardedBlockSession, WorkerConfig,
                            restricted_graph, serve_rows)


class TestRestrictedGraph:
    def test_foreign_rows_are_genuinely_empty(self, parity_graph):
        """Workers must not be able to answer for rows they do not own —
        otherwise the parity tests would never exercise the halo protocol."""
        assignment = partition_graph(parity_graph, 2, strategy="hash")
        view = restricted_graph(parity_graph, assignment, 0)
        assert view.num_nodes == parity_graph.num_nodes  # ids stay global
        assert (assignment[view.edge_index[0]] == 0).all()
        csr = view.adjacency(add_self_loops=False).csr
        foreign = np.flatnonzero(assignment != 0)
        assert (np.diff(csr.indptr)[foreign] == 0).all()
        # features stay shared: halo rows gather sources from local memory
        assert view.x is parity_graph.x

    def test_every_edge_owned_by_exactly_one_shard(self, parity_graph):
        assignment = partition_graph(parity_graph, 2, strategy="degree")
        views = [restricted_graph(parity_graph, assignment, shard)
                 for shard in (0, 1)]
        total = sum(view.edge_index.shape[1] for view in views)
        assert total == parity_graph.edge_index.shape[1]


class TestShardSampler:
    """Process-free: a shard's sampler whose halo fetch is answered in
    process by a full-graph sampler returns the single-process rows."""

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["uncached", "cached"])
    @pytest.mark.parametrize("fanout", [2, None], ids=["f2", "finf"])
    def test_rows_byte_identical_to_single_process(self, parity_graph,
                                                   fanout, cached):
        assignment = partition_graph(parity_graph, 2, strategy="hash")
        settings = {"fanouts": [fanout], "batch_size": 32, "seed": 7,
                    "shuffle": False}
        reference = NeighborSampler(parity_graph, **settings)
        owner = NeighborSampler(parity_graph, **settings)
        plans = []

        def halo_fetch(plan, fanout, hop, epoch):
            plans.append(plan)
            return {shard: serve_rows(owner, nodes, fanout, hop, epoch)
                    for shard, nodes in plan.items()}

        sampler = ShardSampler(
            restricted_graph(parity_graph, assignment, 0), assignment, 0,
            halo_fetch, reference._row_weight, reference._inv_sqrt,
            cache=BlockCache(max_entries=4096) if cached else None,
            **settings)
        rng = np.random.default_rng(0)
        foreign = np.flatnonzero(assignment != 0)[:12]
        for round_ in range(3):
            # shuffled ids of both shards, drawn with repeats; the last
            # round owns none of its targets
            targets = rng.integers(0, parity_graph.num_nodes, size=48) \
                if round_ < 2 else foreign
            for hop in (0, 1):
                salt = _salt(7, 0, hop)
                ours = sampler._final_rows(targets, fanout, hop, salt)
                theirs = reference._final_rows(targets, fanout, hop, salt)
                for mine, expected in zip(ours, theirs):
                    assert mine.dtype == expected.dtype
                    assert mine.tobytes() == expected.tobytes()
        assert plans and all(0 not in plan for plan in plans)
        if cached:
            assert sampler.cache.stats().hits > 0


class TestShardWorkerSession:
    """Process-free: a worker's session whose halo fetch is answered in
    process by a full-graph sampler."""

    def test_caches_rows_not_batches(self, shard_artifact, parity_graph):
        assignment = partition_graph(parity_graph, 2, strategy="hash")
        _, row_weight, inv_sqrt = degree_state(parity_graph)
        owner = NeighborSampler(parity_graph, fanouts=3, seed=7,
                                shuffle=False)

        def halo_fetch(plan, fanout, hop, epoch):
            return {shard: serve_rows(owner, nodes, fanout, hop, epoch)
                    for shard, nodes in plan.items()}

        session = ShardWorkerSession(WorkerConfig(
            shard=0, assignment=assignment, artifact=shard_artifact,
            graph=parity_graph, fanouts=3, batch_size=32, seed=7,
            cache_size=4096, cache_bytes=None, row_weight=row_weight,
            inv_sqrt=inv_sqrt), halo_fetch)
        chunk = np.arange(0, 64, 2, dtype=np.int64)  # seeds of both shards
        first = session.run(chunk)
        cold = session.cache_stats()
        second = session.run(chunk)
        warm = session.cache_stats()

        assert session.sampler.cache_batches is False
        assert all(key[0] != "bat" for key in session.cache._lru.keys())
        assert warm.misses == cold.misses and warm.hits > cold.hits
        reference = BlockSession(shard_artifact, parity_graph, fanouts=3,
                                 batch_size=32, seed=7).run(chunk)
        np.testing.assert_array_equal(first.logits, reference.logits)
        np.testing.assert_array_equal(second.logits, reference.logits)


class TestShardedBlockSession:
    def test_bitops_match_single_process(self, shard_artifact, parity_graph,
                                         sharded_session):
        seeds = np.arange(0, parity_graph.num_nodes, 2, dtype=np.int64)
        reference = BlockSession(shard_artifact, parity_graph, fanouts=3,
                                 batch_size=32, seed=7).run(seeds)
        run = sharded_session.run(seeds)
        assert run.bit_operations.total_bit_operations \
            == reference.bit_operations.total_bit_operations
        assert run.num_input_nodes == reference.num_input_nodes
        assert run.num_edges == reference.num_edges

    def test_empty_request(self, sharded_session, shard_artifact):
        run = sharded_session.run(np.empty(0, dtype=np.int64))
        assert run.logits.shape == (0, shard_artifact.num_classes)
        assert run.num_seeds == 0

    def test_cache_stats_aggregate_across_shards(self, shard_artifact,
                                                 parity_graph):
        seeds = np.arange(0, parity_graph.num_nodes, 3, dtype=np.int64)
        with ShardedBlockSession(shard_artifact, parity_graph, shards=2,
                                 fanouts=3, batch_size=32, seed=7,
                                 cache_size=4096) as session:
            assert session.run(seeds) is not None
            cold = session.cache_stats()
            session.run(seeds)
            warm = session.cache_stats()
        assert cold.misses > 0
        assert warm.hits > cold.hits and warm.misses == cold.misses

    def test_cache_stats_none_when_cache_off(self, sharded_session):
        assert sharded_session.cache_stats() is None

    def test_rejects_bad_arguments(self, shard_artifact, parity_graph):
        with pytest.raises(ValueError):
            ShardedBlockSession(shard_artifact, parity_graph, shards=0)
        with pytest.raises(ValueError):
            ShardedBlockSession(shard_artifact, parity_graph, shards=2,
                                partition="roulette")
        with pytest.raises(ValueError):
            ShardedBlockSession(shard_artifact, parity_graph, shards=2,
                                batch_size=0)

    def test_close_is_idempotent(self, shard_artifact, parity_graph):
        session = ShardedBlockSession(shard_artifact, parity_graph, shards=2,
                                      fanouts=3, batch_size=32)
        session.run(np.arange(8, dtype=np.int64))
        session.close()
        session.close()


class TestEngineIntegration:
    """The serving engines treat the sharded session like any other
    block session — same results, request for request."""

    def test_serving_engine_over_sharded_session(self, shard_artifact,
                                                 parity_graph,
                                                 sharded_session):
        requests = [np.arange(0, 24, dtype=np.int64),
                    np.arange(50, 70, dtype=np.int64),
                    np.asarray([3, 90, 17])]
        reference = BlockSession(shard_artifact, parity_graph, fanouts=3,
                                 batch_size=32, seed=7)
        single = ServingEngine(reference, max_batch_size=32)
        sharded = ServingEngine(sharded_session, max_batch_size=32)
        for nodes in requests:
            single.submit(nodes)
            sharded.submit(nodes)
        for ours, theirs in zip(sharded.flush(), single.flush()):
            assert ours.ok and theirs.ok
            np.testing.assert_array_equal(ours.logits, theirs.logits)

    def test_async_engine_over_sharded_session(self, shard_artifact,
                                               parity_graph, sharded_session):
        reference = BlockSession(shard_artifact, parity_graph, fanouts=3,
                                 batch_size=32, seed=7)
        nodes = np.arange(10, 42, dtype=np.int64)
        with AsyncServingEngine(sharded_session, max_batch=32) as engine:
            result = engine.submit(nodes).result(timeout=60)
        assert result.ok
        np.testing.assert_array_equal(result.logits,
                                      reference.predict(nodes))
