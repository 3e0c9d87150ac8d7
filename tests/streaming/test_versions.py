"""One version counter: graph/row versions, batch keys, row-only eviction."""

import numpy as np
import pytest

from repro.cache import block_cache
from repro.cache.block_cache import BlockCache
from repro.cache.lru import LRUCache
from repro.graphs.graph import Graph
from repro.graphs.sampling import NeighborSampler, degree_state
from repro.serving import BlockSession
from repro.streaming import GraphDelta


def _path_graph(n=8, features=2):
    """0 -> 1 -> 2 -> ... -> n-1 (directed chain)."""
    src = np.arange(n - 1)
    dst = np.arange(1, n)
    return Graph(np.zeros((n, features), dtype=np.float32),
                 np.stack([src, dst]))


def _row_is_cached(cache, graph, node):
    return cache.get_rows([node], fanout=None, hop=0, epoch=0,
                          versions=graph.row_version[[node]])[0] is not None


class TestRowVersion:
    def test_bumps_exactly_the_changed_rows(self):
        graph = _path_graph(6)
        delta = GraphDelta(added_edges=np.asarray([[4, 4, 0], [0, 1, 5]]),
                           removed_edges=np.asarray([[2], [3]]))
        applied = graph.apply_delta(delta)
        expected = np.zeros(6, dtype=np.int64)
        expected[applied.changed_rows()] = 1
        np.testing.assert_array_equal(applied.changed_rows(), [0, 2, 4])
        np.testing.assert_array_equal(graph.row_version, expected)
        assert graph.version == 1
        graph.apply_delta(GraphDelta(removed_edges=np.asarray([[4], [0]])))
        np.testing.assert_array_equal(graph.row_version, [1, 0, 1, 0, 2, 0])
        assert graph.version == 2

    def test_feature_only_delta_bumps_no_row(self):
        graph = _path_graph(5)
        graph.apply_delta(GraphDelta(feature_nodes=np.asarray([1, 3]),
                                     features=np.ones((2, 2),
                                                      dtype=np.float32)))
        assert graph.version == 1
        assert not graph.row_version.any()

    def test_rejected_delta_leaves_both_counters(self):
        graph = _path_graph(5)
        graph.add_edges(np.asarray([[3], [0]]))
        rows_before = graph.row_version.copy()
        with pytest.raises(ValueError):
            graph.apply_delta(GraphDelta(
                added_edges=np.asarray([[1], [2]]),
                removed_edges=np.asarray([[4], [0]])))  # absent edge
        assert graph.version == 1
        np.testing.assert_array_equal(graph.row_version, rows_before)

    def test_copy_starts_at_version_zero(self):
        graph = _path_graph(4)
        graph.add_edges(np.asarray([[0], [2]]))
        copy = graph.copy()
        assert copy.version == 0 and not copy.row_version.any()


class TestBatchKeys:
    def test_stored_batch_misses_after_any_update(self):
        graph = _path_graph(6)
        cache = BlockCache(max_entries=256)
        sampler = NeighborSampler(graph, [None, None], cache=cache,
                                  shuffle=False)
        seeds = np.asarray([0, 1], dtype=np.int64)
        batch = sampler.sample(seeds)
        assert sampler.sample(seeds).blocks is batch.blocks
        for delta in (GraphDelta(),
                      GraphDelta(feature_nodes=np.asarray([5]),
                                 features=np.ones((1, 2), dtype=np.float32)),
                      GraphDelta(added_edges=np.asarray([[5], [4]]))):
            graph.apply_delta(delta)
            sampler.refresh_graph()
            # unreachable by key, before and without any eviction
            assert cache.get_batch(seeds, sampler.fanouts, 0,
                                   version=graph.version) is None
            rebuilt = sampler.sample(seeds)
            assert rebuilt is not batch
            batch = rebuilt

    def test_feature_delta_hit_gathers_the_new_features(self):
        """A stored stack holds no features: after an in-place feature
        write the first repeat misses at the new version, the next one
        hits, and both gather exactly what a fresh sampler gathers."""
        graph = _path_graph(6)
        graph.x[:] = np.arange(12, dtype=np.float32).reshape(6, 2)
        graph.y = np.arange(6, dtype=np.int64)
        sampler = NeighborSampler(graph, [None, None],
                                  cache=BlockCache(max_entries=256),
                                  shuffle=False)
        seeds = np.asarray([2, 4], dtype=np.int64)
        before = sampler.sample(seeds)
        graph.apply_delta(GraphDelta(
            feature_nodes=np.asarray([1, 3]),
            features=np.full((2, 2), 7.0, dtype=np.float32)))
        sampler.refresh_graph()
        first = sampler.sample(seeds)
        second = sampler.sample(seeds)
        assert first.blocks is not before.blocks     # missed: new version
        assert second.blocks is first.blocks         # hit
        assert not np.array_equal(first.x, before.x)  # the write is visible
        fresh = NeighborSampler(graph, [None, None], shuffle=False)
        expected = fresh.sample(seeds)
        for batch in (first, second):
            assert batch.x.tobytes() == expected.x.tobytes()
            assert batch.y.tobytes() == expected.y.tobytes()
            for block, want in zip(batch.blocks, expected.blocks):
                np.testing.assert_array_equal(block.src_nodes,
                                              want.src_nodes)


class TestInvalidateNodes:
    def _warm_cache(self):
        cache = BlockCache(max_entries=64)
        for node in range(4):
            cache.put_raw_rows([node],
                               [(np.asarray([node + 1]), np.asarray([1.0]))])
        seeds = np.asarray([0, 1], dtype=np.int64)
        payload = []  # a stored block stack
        cache.put_batch(seeds, (5,), 0, payload)
        return cache, seeds, payload

    def test_evicts_only_named_nodes(self):
        cache, seeds, payload = self._warm_cache()
        evicted = cache.invalidate_nodes(np.asarray([2]))
        assert evicted == 2  # node 2's row and the batch
        # untouched row entries still hit; the evicted one misses
        entries = cache.get_rows([0, 1, 3], fanout=None, hop=0, epoch=0)
        assert all(entry is not None for entry in entries)
        assert cache.get_rows([2], fanout=None, hop=0, epoch=0) == [None]

    def test_evicts_batches_touching_region(self):
        cache, seeds, payload = self._warm_cache()
        assert cache.get_batch(seeds, (5,), 0) is payload
        cache.invalidate_nodes(np.asarray([1]))
        assert cache.get_batch(seeds, (5,), 0) is None

    def test_drops_every_batch(self):
        """Every update advances the graph version, so no batch survives
        one — not even for an empty node set (a feature-only delta)."""
        cache, seeds, payload = self._warm_cache()
        cache.put_batch(np.asarray([3], dtype=np.int64), (5,), 0, payload)
        assert cache.invalidate_nodes(np.asarray([], dtype=np.int64)) == 2
        assert cache.get_batch(seeds, (5,), 0) is None
        assert len(cache) == 4  # the rows all stay

    def test_pops_only_the_named_version(self):
        """An entry stored under a newer version of the same row (and any
        other row) survives: only the named version's keys are popped."""
        cache = BlockCache(max_entries=64)
        row = (np.asarray([1, 2]), np.asarray([1.0, 1.0]))
        for version in (0, 1):
            cache.put_raw_rows([0], [row], versions=[version])
            cache.put_capped_rows([0], 1, 0, 0, [(row[0][:1], row[1][:1])],
                                  versions=[version])
        cache.put_raw_rows([1], [row], versions=[0])
        assert cache.invalidate_nodes(np.asarray([0]),
                                      versions=np.asarray([0])) == 2
        assert sorted(cache._lru.keys()) == sorted([
            ("row", 0, 1), ("blk", 0, 1, 0, 0, 1), ("row", 1, 0)])

    def test_count_excludes_names_already_evicted(self):
        """The named batch and row 0 were pushed out by capacity: popping
        their names removes nothing and counts nothing."""
        cache = BlockCache(max_entries=2)
        rows = [(np.asarray([node]), np.asarray([1.0])) for node in range(3)]
        cache.put_batch(np.asarray([7], dtype=np.int64), (5,), 0, [])
        cache.put_raw_rows([0, 1, 2], rows)
        assert cache._lru.keys() == [("row", 1, 0), ("row", 2, 0)]
        assert cache.invalidate_nodes(np.asarray([0, 1])) == 1
        assert cache._lru.keys() == [("row", 2, 0)]

    def test_versioned_keys_make_stale_entries_unreachable(self):
        """Even without eviction, a bumped row version misses by key."""
        graph = _path_graph(4)
        cache = BlockCache(max_entries=16)
        rows = [(np.asarray([1]), np.asarray([1.0]))]
        cache.put_raw_rows([0], rows, versions=graph.row_version[[0]])
        assert _row_is_cached(cache, graph, 0)
        graph.add_edges(np.asarray([[0], [2]]))
        assert not _row_is_cached(cache, graph, 0)

    def test_sampler_never_serves_a_stale_row_without_eviction(self):
        """Correctness rests on the keys alone: with nothing evicted, a
        cached sampler still matches an uncached one after an update."""
        graph = _path_graph(6)
        cached = NeighborSampler(graph, [None, None], cache=BlockCache(),
                                 cache_batches=False, shuffle=False)
        seeds = np.arange(6, dtype=np.int64)
        cached.sample(seeds)
        graph.apply_delta(GraphDelta(added_edges=np.asarray([[3], [0]]),
                                     removed_edges=np.asarray([[1], [2]])))
        cached.refresh_graph()
        plain = NeighborSampler(graph.copy(), [None, None], shuffle=False)
        for got, want in zip(cached.sample(seeds).blocks,
                             plain.sample(seeds).blocks):
            np.testing.assert_array_equal(got.src_nodes, want.src_nodes)
            np.testing.assert_array_equal(got.edge_cols, want.edge_cols)
            np.testing.assert_array_equal(got.edge_weight, want.edge_weight)


def test_update_keeps_upstream_rows_warm(parity_artifact, parity_graph):
    """On 0->1->2->3->4, adding (2, 0) changes only row 2: node 1, whose
    two-hop receptive field reaches the change, keeps its warm row."""
    artifact = parity_artifact("gcn", 1)
    graph = _path_graph(5, features=parity_graph.num_features)
    session = BlockSession(artifact, graph, fanouts=None, batch_size=8,
                           cache_size=4096)
    seeds = np.arange(5, dtype=np.int64)
    session.predict(seeds)
    session.apply_update(GraphDelta(added_edges=np.asarray([[2], [0]])))
    cache = session.cache
    # rows 0 and 1 never changed, so their version-0 entries still hit
    for node in (0, 1):
        assert cache.get_rows([node], fanout=None, hop=0, epoch=0) != [None]
    assert cache.get_rows([2], fanout=None, hop=0, epoch=0) == [None]
    fresh = BlockSession(artifact, graph.copy(), fanouts=None, batch_size=8)
    np.testing.assert_array_equal(session.predict(seeds),
                                  fresh.predict(seeds))


def test_feature_only_update_keeps_every_row(parity_artifact, parity_graph):
    """A feature overwrite changes no adjacency row: the update evicts the
    batches (the graph version moved) and no row entry at all."""
    session = BlockSession(parity_artifact("gcn", 1), parity_graph.copy(),
                           fanouts=3, batch_size=32, cache_size=65536)
    seeds = np.arange(0, parity_graph.num_nodes, 3, dtype=np.int64)
    session.predict(seeds)
    batches = -(-seeds.shape[0] // 32)
    entries = len(session.cache)
    session.apply_update(GraphDelta(
        feature_nodes=seeds[:4],
        features=np.ones((4, parity_graph.num_features), dtype=np.float32)))
    assert len(session.cache) == entries - batches
    assert session.graph.version == 1
    assert not session.graph.row_version.any()


class TestNamedEviction:
    def test_apply_update_never_scans_the_store(self, parity_artifact,
                                                parity_graph, monkeypatch):
        def scan(self, predicate):
            raise AssertionError("apply_update scanned the store")

        monkeypatch.setattr(LRUCache, "evict_where", scan)
        session = BlockSession(parity_artifact("gcn", 1), parity_graph.copy(),
                               fanouts=3, batch_size=16, cache_size=65536)
        seeds = np.arange(0, 40, dtype=np.int64)
        edge = session.graph.edge_index[:, :1]
        for delta in (GraphDelta(added_edges=np.asarray([[3], [9]])),
                      GraphDelta(removed_edges=edge),
                      GraphDelta(feature_nodes=np.asarray([4]),
                                 features=np.ones(
                                     (1, parity_graph.num_features),
                                     dtype=np.float32))):
            session.predict(seeds)
            entries = len(session.cache)
            session.apply_update(delta)
            assert len(session.cache) < entries
        fresh = BlockSession(parity_artifact("gcn", 1),
                             session.graph.copy(), fanouts=3, batch_size=16)
        np.testing.assert_array_equal(session.predict(seeds),
                                      fresh.predict(seeds))

    def test_evicts_what_a_scan_of_the_pre_update_keys_finds(
            self, parity_artifact, parity_graph):
        """The named pop removes exactly the changed rows' entries and the
        batches of a key snapshot taken before the update."""
        session = BlockSession(parity_artifact("gcn", 1), parity_graph.copy(),
                               fanouts=3, batch_size=16, cache_size=65536)
        session.predict(np.arange(0, 60, dtype=np.int64))
        delta = GraphDelta(added_edges=np.asarray([[5, 17], [2, 30]]))
        changed = set(delta.changed_rows().tolist())
        doomed = [key for key in session.cache._lru.keys()
                  if key[0] == "bat" or key[1] in changed]
        assert any(key[0] == "blk" for key in doomed)
        before = session.cache.stats().evictions
        session.apply_update(delta)
        assert session.cache.stats().evictions - before == len(doomed)
        assert not set(doomed) & set(session.cache._lru.keys())

    def test_batch_index_stays_bounded_on_a_static_graph(self):
        """With no update to clear it, the index of stored batch names is
        pruned of evicted ones and tracks the live batch entries."""
        graph = _path_graph(80)
        max_entries = 256
        cache = BlockCache(max_entries=max_entries)
        sampler = NeighborSampler(graph, [2, 2], cache=cache, shuffle=False)
        pairs = [(a, b) for a in range(80) for b in range(a + 1, 80)]
        for step, (a, b) in enumerate(pairs[:10 * max_entries]):
            sampler.sample(np.asarray([a, b], dtype=np.int64))
            if step % 16 == 15:
                live = sum(key[0] == "bat" for key in cache._lru.keys())
                assert live > 0
                assert len(cache._batch_keys) <= \
                    2 * live + block_cache._MIN_BATCH_PRUNE


class TestDegreeStateRows:
    def _graph(self):
        rng = np.random.default_rng(4)
        n = 30
        src = rng.integers(0, n, size=400)
        dst = rng.integers(0, n, size=400)
        keep = src != dst
        edges = np.unique(np.stack([src[keep], dst[keep]]), axis=1)
        weights = (rng.random(edges.shape[1]) + 0.1).astype(np.float32)
        return Graph(np.zeros((n, 2), dtype=np.float32), edges,
                     edge_weight=weights)

    @staticmethod
    def _assert_rows_match_full(graph, rows):
        _, full_weight, full_inv_sqrt = degree_state(graph)
        _, weight, inv_sqrt = degree_state(graph, rows)
        assert weight.tobytes() == full_weight[rows].tobytes()
        assert inv_sqrt.tobytes() == full_inv_sqrt[rows].tobytes()
        # ... and the full result itself is a fresh graph's, bitwise
        _, fresh_weight, fresh_inv_sqrt = degree_state(graph.copy())
        assert full_weight.tobytes() == fresh_weight.tobytes()
        assert full_inv_sqrt.tobytes() == fresh_inv_sqrt.tobytes()

    def test_rows_equal_the_full_result_through_empty_and_refill(self):
        graph = self._graph()
        sampler = NeighborSampler(graph, [None], shuffle=False)
        row = int(np.bincount(graph.edge_index[0]).argmax())
        leaving = graph.edge_index[:, graph.edge_index[0] == row]
        weights = graph.edge_weight[graph.edge_index[0] == row]
        assert leaving.shape[1] > 8   # long enough for a pairwise sum
        self._assert_rows_match_full(graph, np.asarray([row, 0, 29]))
        for delta in (GraphDelta(removed_edges=leaving),          # emptied
                      GraphDelta(added_edges=leaving[:, ::-1],    # refilled
                                 added_weights=weights[::-1])):
            changed = graph.apply_delta(delta).changed_rows()
            np.testing.assert_array_equal(changed, [row])
            sampler.refresh_rows(changed)
            self._assert_rows_match_full(graph, np.asarray([row, 3]))
            _, weight, inv_sqrt = degree_state(graph.copy())
            assert sampler._row_weight.tobytes() == weight.tobytes()
            assert sampler._inv_sqrt.tobytes() == inv_sqrt.tobytes()
        assert degree_state(graph, np.asarray([row]))[1][0] > 0
