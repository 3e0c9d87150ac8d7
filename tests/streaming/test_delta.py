"""GraphDelta validation, atomicity, and incremental-splice bit-identity."""

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.streaming import GraphDelta
from repro.tensor.sparse import SparseTensor


def _graph(num_nodes=10, num_edges=30, seed=0, num_features=4):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, num_nodes, size=(2, num_edges))
    # guarantee at least one duplicate directed pair
    edges[:, -1] = edges[:, 0]
    weights = rng.random(num_edges).astype(np.float32) + np.float32(0.5)
    x = rng.random((num_nodes, num_features)).astype(np.float32)
    return Graph(x, edges, edge_weight=weights)


class TestDeltaValidation:
    def test_empty_delta_is_valid_and_bumps_version(self):
        graph = _graph()
        before = graph.edge_index.copy()
        delta = GraphDelta()
        assert delta.is_empty
        graph.apply_delta(delta)
        assert graph.version == 1
        np.testing.assert_array_equal(graph.edge_index, before)

    def test_rejects_bad_edge_shapes(self):
        with pytest.raises(ValueError):
            GraphDelta(added_edges=np.zeros((3, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            GraphDelta(added_edges=np.zeros(4, dtype=np.int64))

    def test_rejects_weight_count_mismatch(self):
        edges = np.asarray([[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            GraphDelta(added_edges=edges, added_weights=np.ones(3))

    def test_rejects_partial_feature_update(self):
        with pytest.raises(ValueError):
            GraphDelta(feature_nodes=np.asarray([0, 1]))
        with pytest.raises(ValueError):
            GraphDelta(features=np.zeros((2, 4)))
        with pytest.raises(ValueError):
            GraphDelta(feature_nodes=np.asarray([1, 1]),
                       features=np.zeros((2, 4)))

    def test_touched_and_changed_rows(self):
        delta = GraphDelta(added_edges=np.asarray([[3, 3], [1, 2]]),
                           removed_edges=None,
                           feature_nodes=np.asarray([7]),
                           features=np.zeros((1, 4), dtype=np.float32))
        np.testing.assert_array_equal(delta.changed_rows(), [3])
        np.testing.assert_array_equal(delta.touched_nodes(), [1, 2, 3, 7])


class TestApplyDelta:
    def test_spliced_adjacency_matches_fresh_rebuild(self):
        """The defining check: incremental splice == full reconstruction."""
        graph = _graph(num_nodes=16, num_edges=60)
        # warm the raw-adjacency cache so apply_delta takes the splice path
        graph.adjacency(add_self_loops=False)
        rng = np.random.default_rng(1)
        for _ in range(4):
            edges = rng.integers(0, 16, size=(2, 5))
            weights = rng.random(5).astype(np.float32)
            graph.add_edges(edges, weights)
            fresh = Graph(graph.x.copy(), graph.edge_index.copy(),
                          edge_weight=graph.edge_weight.copy())
            for loops in (False, True):
                spliced = graph.adjacency(add_self_loops=loops).csr
                rebuilt = fresh.adjacency(add_self_loops=loops).csr
                np.testing.assert_array_equal(spliced.indptr, rebuilt.indptr)
                np.testing.assert_array_equal(spliced.indices, rebuilt.indices)
                np.testing.assert_array_equal(spliced.data, rebuilt.data)
            gcn = graph.normalized_adjacency().csr
            gcn_fresh = fresh.normalized_adjacency().csr
            np.testing.assert_array_equal(gcn.data, gcn_fresh.data)

    def test_version_is_monotone(self):
        graph = _graph()
        assert graph.version == 0
        graph.add_edges(np.asarray([[0], [1]]))
        graph.update_features(np.asarray([2]),
                              np.ones((1, 4), dtype=np.float32))
        graph.remove_edges(np.asarray([[0], [1]]))
        assert graph.version == 3

    def test_remove_drops_every_occurrence(self):
        edges = np.asarray([[0, 0, 1], [1, 1, 2]])
        graph = Graph(np.zeros((3, 2), dtype=np.float32), edges)
        graph.remove_edges(np.asarray([[0], [1]]))
        assert graph.num_edges == 1
        np.testing.assert_array_equal(graph.edge_index, [[1], [2]])

    def test_remove_many_matches_a_pairwise_filter(self):
        """Removal is a lookup of each edge among the removed pairs; it must
        equal the edge-by-edge filter for small and large removal sets,
        repeated pairs in either list included."""
        graph = _graph(num_nodes=16, num_edges=200)
        pairs = list(zip(*graph.edge_index.tolist()))
        removed = graph.edge_index[:, ::2]
        gone = set(zip(*removed.tolist()))
        graph.remove_edges(np.concatenate([removed, removed[:, :3]], axis=1))
        assert list(zip(*graph.edge_index.tolist())) == \
            [pair for pair in pairs if pair not in gone]

    def test_absent_edge_among_present_ones_is_named(self):
        edges = np.asarray([[0, 1, 2], [1, 2, 0]])
        graph = Graph(np.zeros((3, 2), dtype=np.float32), edges)
        with pytest.raises(ValueError, match=r"absent edge \(2, 1\)"):
            graph.remove_edges(np.asarray([[0, 2, 2], [1, 1, 0]]))
        np.testing.assert_array_equal(graph.edge_index, edges)

    def test_remove_absent_edge_is_atomic(self):
        graph = _graph()
        before_edges = graph.edge_index.copy()
        before_x = graph.x.copy()
        delta = GraphDelta(
            added_edges=np.asarray([[0], [1]]),
            removed_edges=np.asarray([[0], [0]]) + graph.num_nodes - 1,
            feature_nodes=np.asarray([0]),
            features=np.full((1, 4), 9.0, dtype=np.float32))
        with pytest.raises(ValueError, match="absent edge"):
            graph.apply_delta(delta)
        # nothing moved: not the edges, not the features, not the version
        np.testing.assert_array_equal(graph.edge_index, before_edges)
        np.testing.assert_array_equal(graph.x, before_x)
        assert graph.version == 0

    def test_rejects_out_of_range_nodes(self):
        graph = _graph(num_nodes=5)
        with pytest.raises(ValueError):
            graph.add_edges(np.asarray([[5], [0]]))
        with pytest.raises(ValueError):
            graph.update_features(np.asarray([-1]),
                                  np.zeros((1, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            graph.update_features(np.asarray([0]),
                                  np.zeros((1, 3), dtype=np.float32))

    def test_feature_update_overwrites_rows(self):
        graph = _graph()
        rows = np.full((2, 4), 3.5, dtype=np.float32)
        graph.update_features(np.asarray([1, 4]), rows)
        np.testing.assert_array_equal(graph.x[[1, 4]], rows)


class TestWithRows:
    def test_splice_equals_rebuild(self):
        rng = np.random.default_rng(2)
        dense = (rng.random((8, 8)) * (rng.random((8, 8)) < 0.4)) \
            .astype(np.float32)
        import scipy.sparse as sp
        tensor = SparseTensor(sp.csr_matrix(dense))
        rows = np.asarray([1, 5])
        new_rows = (rng.random((2, 8)) * (rng.random((2, 8)) < 0.5)) \
            .astype(np.float32)
        replacement = SparseTensor(sp.csr_matrix(new_rows))
        spliced = tensor.with_rows(rows, replacement).csr
        expected = dense.copy()
        expected[rows] = new_rows
        rebuilt = sp.csr_matrix(expected)
        np.testing.assert_array_equal(spliced.indptr, rebuilt.indptr)
        np.testing.assert_array_equal(spliced.indices, rebuilt.indices)
        np.testing.assert_array_equal(spliced.data, rebuilt.data)

    def test_splice_of_unsorted_adjacent_and_border_rows(self):
        """Rows in any order, next to each other, first and last, emptied
        and filled — and no rows at all."""
        import scipy.sparse as sp
        rng = np.random.default_rng(5)
        dense = (rng.random((9, 6)) * (rng.random((9, 6)) < 0.5)) \
            .astype(np.float32)
        dense[3] = 0.0
        tensor = SparseTensor(sp.csr_matrix(dense))
        rows = np.asarray([8, 3, 0, 4])
        new_rows = (rng.random((4, 6)) * (rng.random((4, 6)) < 0.6)) \
            .astype(np.float32)
        new_rows[0] = 0.0
        spliced = tensor.with_rows(
            rows, SparseTensor(sp.csr_matrix(new_rows))).csr
        expected = dense.copy()
        expected[rows] = new_rows
        rebuilt = sp.csr_matrix(expected)
        np.testing.assert_array_equal(spliced.indptr, rebuilt.indptr)
        np.testing.assert_array_equal(spliced.indices, rebuilt.indices)
        np.testing.assert_array_equal(spliced.data, rebuilt.data)
        unchanged = tensor.with_rows(
            np.asarray([], dtype=np.int64),
            SparseTensor(sp.csr_matrix((0, 6), dtype=np.float32))).csr
        np.testing.assert_array_equal(unchanged.toarray(), dense)

    def test_splice_keeps_dtypes_and_canonical_form(self):
        """The splice is wrapped as it is: float32 values, the source's
        index dtypes, and flagged canonical without a second pass."""
        import scipy.sparse as sp
        dense = np.arange(20, dtype=np.float32).reshape(4, 5) % 3
        tensor = SparseTensor(sp.csr_matrix(dense))
        replacement = SparseTensor(sp.csr_matrix(
            np.asarray([[0, 2, 0, 0, 1]], dtype=np.float32)))
        spliced = tensor.with_rows(np.asarray([2]), replacement).csr
        assert spliced.data.dtype == np.float32
        assert spliced.indices.dtype == tensor.csr.indices.dtype
        assert spliced.indptr.dtype == tensor.csr.indptr.dtype
        assert spliced.has_canonical_format
        expected = dense.copy()
        expected[2] = replacement.csr.toarray()
        np.testing.assert_array_equal(spliced.toarray(), expected)

    def test_rejects_bad_rows(self):
        import scipy.sparse as sp
        tensor = SparseTensor(sp.csr_matrix(np.eye(4)))
        replacement = SparseTensor(sp.csr_matrix(np.zeros((2, 4))))
        with pytest.raises(ValueError):
            tensor.with_rows(np.asarray([0, 0]), replacement)
        with pytest.raises(ValueError):
            tensor.with_rows(np.asarray([0, 4]), replacement)
        with pytest.raises(ValueError):
            tensor.with_rows(np.asarray([0]), replacement)
