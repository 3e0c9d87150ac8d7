"""Neighbor sampler: determinism, fanout caps, renumbering, renormalisation."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.graphs.sampling import (
    BlockBatch,
    NeighborSampler,
    SubgraphBlock,
    target_features,
)
from repro.tensor.sparse import SparseTensor
from repro.tensor.tensor import Tensor


def _block_edges(block: SubgraphBlock) -> set:
    """Sampled edges in global ids."""
    return set(zip(block.dst_nodes[block.edge_rows].tolist(),
                   block.src_nodes[block.edge_cols].tolist()))


def _assert_same_csr(actual, expected):
    """Byte-equal CSR arrays, index dtypes included."""
    for name in ("indptr", "indices", "data"):
        left, right = getattr(actual, name), getattr(expected, name)
        assert left.dtype == right.dtype, name
        assert left.tobytes() == right.tobytes(), name


# --------------------------------------------------------------------------- #
# Row gather and block operators: byte-equal to the scipy builds they replace
# --------------------------------------------------------------------------- #
class TestRowGather:
    @staticmethod
    def _targets(graph):
        rng = np.random.default_rng(4)
        isolated = graph.num_nodes - 1
        targets = rng.integers(0, graph.num_nodes, size=60)
        return np.concatenate([targets, targets[:7], [isolated, isolated]])

    @staticmethod
    def _assert_rows_match_scipy(sampler, targets):
        cols, weights, counts, full = sampler._fetch_rows(targets, None, 0)
        expected = sampler.graph.adjacency().csr[targets]
        assert cols.dtype == np.int64 and counts.dtype == np.int64
        assert weights.dtype == np.float32
        np.testing.assert_array_equal(cols, expected.indices)
        assert weights.tobytes() == expected.data.tobytes()
        np.testing.assert_array_equal(counts, np.diff(expected.indptr))
        assert full.all()

    def test_matches_scipy_row_slice(self, self_edge_graph):
        targets = self._targets(self_edge_graph)
        sampler = NeighborSampler(self_edge_graph, [None], seed=0)
        self._assert_rows_match_scipy(sampler, targets)
        empty = np.zeros(0, dtype=np.int64)
        cols, weights, counts, full = sampler._fetch_rows(empty, None, 0)
        assert cols.size == weights.size == counts.size == full.size == 0

    def test_matches_scipy_row_slice_after_delta(self, self_edge_graph):
        graph = self_edge_graph.copy()
        sampler = NeighborSampler(graph, [None], seed=0)
        graph.remove_edges(graph.edge_index[:, :5])
        graph.add_edges(np.asarray([[3, 3, 40], [3, 50, 3]]))
        sampler.refresh_graph()
        # The splice equals a fresh build of the edited edge list.
        fresh = Graph(graph.x, graph.edge_index, edge_weight=graph.edge_weight)
        _assert_same_csr(graph.adjacency().csr, fresh.adjacency().csr)
        self._assert_rows_match_scipy(sampler, self._targets(graph))


def _scipy_operator(block, values, add_self_loops, loop_values=None):
    """The COO -> CSR build the block's canonical builder replaces."""
    rows, cols = block.edge_rows, block.edge_cols
    if add_self_loops:
        loop = np.arange(block.num_dst, dtype=np.int64)
        rows = np.concatenate([rows, loop])
        cols = np.concatenate([cols, loop])
        if loop_values is None:
            loop_values = np.ones(block.num_dst, dtype=np.float32)
        values = np.concatenate([values, loop_values.astype(np.float32)])
    return SparseTensor(sp.csr_matrix(
        (values.astype(np.float32), (rows, cols)),
        shape=(block.num_dst, block.num_src))).csr


@pytest.mark.parametrize("fanout", [None, 2])
def test_block_operators_match_scipy_build(self_edge_graph, fanout):
    graph = self_edge_graph
    sampler = NeighborSampler(graph, [fanout, fanout], batch_size=32, seed=6)
    seeds = np.concatenate([np.arange(0, 89, 7), [89, 1, 2, 5]])
    merged = 0
    for block in sampler.sample(seeds).blocks:
        merged += int(np.sum(block.dst_nodes[block.edge_rows]
                             == block.src_nodes[block.edge_cols]))
        for loops in (False, True):
            _assert_same_csr(block.adjacency(add_self_loops=loops).csr,
                             _scipy_operator(block, block.edge_weight, loops))
        values = (block.dst_inv_sqrt[block.edge_rows] * block.edge_weight
                  * block.src_inv_sqrt[block.edge_cols]
                  * block.row_scale[block.edge_rows])
        _assert_same_csr(
            block.normalized_adjacency().csr,
            _scipy_operator(block, values, True,
                            block.dst_inv_sqrt * block.dst_inv_sqrt))
    assert merged > 0  # the self-edge + self-loop merge ran


# --------------------------------------------------------------------------- #
# NeighborSampler
# --------------------------------------------------------------------------- #
class TestNeighborSampler:
    def test_seeded_determinism(self, sbm_graph):
        batches_a = list(NeighborSampler(sbm_graph, [4, 4], batch_size=32, seed=11))
        batches_b = list(NeighborSampler(sbm_graph, [4, 4], batch_size=32, seed=11))
        assert len(batches_a) == len(batches_b) > 1
        for a, b in zip(batches_a, batches_b):
            np.testing.assert_array_equal(a.seed_nodes, b.seed_nodes)
            for block_a, block_b in zip(a.blocks, b.blocks):
                np.testing.assert_array_equal(block_a.src_nodes, block_b.src_nodes)
                assert _block_edges(block_a) == _block_edges(block_b)

    def test_different_seeds_differ(self, sbm_graph):
        a = next(iter(NeighborSampler(sbm_graph, [3, 3], batch_size=32, seed=0)))
        b = next(iter(NeighborSampler(sbm_graph, [3, 3], batch_size=32, seed=1)))
        assert not np.array_equal(a.seed_nodes, b.seed_nodes)

    def test_fanout_caps_respected(self, sbm_graph):
        fanout = 3
        sampler = NeighborSampler(sbm_graph, [fanout, fanout], batch_size=16, seed=2)
        for batch in sampler:
            for block in batch.blocks:
                per_row = np.bincount(block.edge_rows, minlength=block.num_dst)
                assert per_row.max(initial=0) <= fanout

    def test_sampled_edges_exist_in_graph(self, sbm_graph):
        dense = sbm_graph.adjacency().to_dense()
        batch = next(iter(NeighborSampler(sbm_graph, [4, 4], batch_size=16, seed=3)))
        for block in batch.blocks:
            for u, v in _block_edges(block):
                assert dense[u, v] != 0.0

    def test_renumbering_round_trips(self, sbm_graph):
        batch = next(iter(NeighborSampler(sbm_graph, [4, 4], batch_size=16, seed=4)))
        inner, outer = batch.blocks
        # Targets are a prefix of sources on every block.
        for block in batch.blocks:
            np.testing.assert_array_equal(block.src_nodes[:block.num_dst],
                                          block.dst_nodes)
            assert np.unique(block.src_nodes).size == block.num_src
        # Consecutive blocks chain: the inner block produces exactly the
        # sources the outer block consumes.
        np.testing.assert_array_equal(inner.dst_nodes, outer.src_nodes)
        np.testing.assert_array_equal(outer.dst_nodes, batch.seed_nodes)
        # Features and labels line up with the global ids.
        np.testing.assert_array_equal(batch.x, sbm_graph.x[inner.src_nodes])
        np.testing.assert_array_equal(batch.y, sbm_graph.y[batch.seed_nodes])

    def test_unlimited_fanout_keeps_every_neighbour(self, sbm_graph):
        dense = sbm_graph.adjacency().to_dense()
        batch = next(iter(NeighborSampler(sbm_graph, [None, None],
                                          batch_size=16, seed=5)))
        block = batch.blocks[-1]
        for local_row, node in enumerate(block.dst_nodes):
            neighbours = set(np.flatnonzero(dense[node]).tolist())
            sampled = {int(block.src_nodes[c])
                       for c in block.edge_cols[block.edge_rows == local_row]}
            assert sampled == neighbours

    def test_mean_degree_renormalisation(self, sbm_graph):
        batch = next(iter(NeighborSampler(sbm_graph, [2, 2], batch_size=16, seed=6)))
        from repro.gnn.sage import mean_adjacency

        for block in batch.blocks:
            rows = mean_adjacency(block).row_sum()
            sampled_rows = np.bincount(block.edge_rows, minlength=block.num_dst) > 0
            np.testing.assert_allclose(rows[sampled_rows], 1.0, rtol=1e-5)

    def test_gcn_norm_exact_at_unlimited_fanout(self, sbm_graph):
        batch = next(iter(NeighborSampler(sbm_graph, [None, None],
                                          batch_size=24, seed=7)))
        full = sbm_graph.normalized_adjacency().to_dense()
        for block in batch.blocks:
            sliced = full[np.ix_(block.dst_nodes, block.src_nodes)]
            np.testing.assert_allclose(block.normalized_adjacency().to_dense(),
                                       sliced, atol=1e-6)
            # All mass of those rows lives inside the block's columns.
            np.testing.assert_allclose(block.normalized_adjacency().row_sum(),
                                       full[block.dst_nodes].sum(axis=1), atol=1e-6)

    def test_scalar_fanout_broadcasts(self, sbm_graph):
        sampler = NeighborSampler(sbm_graph, 4, num_layers=3, batch_size=8, seed=8)
        batch = sampler.sample(np.asarray([0, 1, 2]))
        assert batch.num_layers == 3

    def test_len_counts_batches(self, sbm_graph):
        sampler = NeighborSampler(sbm_graph, [2], batch_size=7, seed=9)
        assert len(sampler) == -(-sampler.seed_nodes.size // 7)
        assert len(list(sampler)) == len(sampler)

    # ------------------------------------------------------------------ #
    # regression: edge sampling shares one counter-based key stream, so a
    # batch's sample cannot depend on what was drawn before it (the old
    # sequential-rng implementation leaked iteration order into samples)
    # ------------------------------------------------------------------ #
    def test_iter_batches_independent_of_iteration_order(self, sbm_graph):
        seeds = np.arange(40, dtype=np.int64)
        fresh = NeighborSampler(sbm_graph, [3, 3], batch_size=16, seed=21)
        warmed = NeighborSampler(sbm_graph, [3, 3], batch_size=16, seed=21)
        # Consume unrelated sampling work on one of the two samplers first.
        warmed.sample(np.asarray([7, 9, 11]))
        list(warmed.iter_batches(np.arange(60, 90, dtype=np.int64)))
        for a, b in zip(fresh.iter_batches(seeds), warmed.iter_batches(seeds)):
            for block_a, block_b in zip(a.blocks, b.blocks):
                np.testing.assert_array_equal(block_a.src_nodes,
                                              block_b.src_nodes)
                np.testing.assert_array_equal(block_a.edge_rows,
                                              block_b.edge_rows)
                np.testing.assert_array_equal(block_a.edge_cols,
                                              block_b.edge_cols)
                np.testing.assert_array_equal(block_a.edge_weight,
                                              block_b.edge_weight)

    def test_repeat_sample_is_identical(self, sbm_graph):
        sampler = NeighborSampler(sbm_graph, [2, 2], batch_size=8, seed=22)
        seeds = np.asarray([0, 3, 50, 80], dtype=np.int64)
        first = sampler.sample(seeds)
        second = sampler.sample(seeds)
        for block_a, block_b in zip(first.blocks, second.blocks):
            assert _block_edges(block_a) == _block_edges(block_b)
            np.testing.assert_array_equal(block_a.row_scale, block_b.row_scale)

    def test_block_nbytes_sums_its_own_arrays(self, sbm_graph):
        block = NeighborSampler(sbm_graph, [3], seed=1).sample(
            np.asarray([0, 7, 30], dtype=np.int64)).blocks[0]
        arrays = ("dst_nodes", "src_nodes", "edge_rows", "edge_cols",
                  "edge_weight", "dst_inv_sqrt", "src_inv_sqrt", "row_scale")
        expected = sum(getattr(block, name).nbytes for name in arrays)
        assert block.nbytes == expected
        block.normalized_adjacency()        # built operators are not counted
        assert block.nbytes == expected

    def test_epoch_iteration_still_resamples(self, sbm_graph):
        sampler = NeighborSampler(sbm_graph, [2, 2], batch_size=32,
                                  shuffle=False, seed=23)
        edges_by_epoch = []
        for _ in range(2):
            edges_by_epoch.append({frozenset(_block_edges(block))
                                   for batch in sampler
                                   for block in batch.blocks})
        assert edges_by_epoch[0] != edges_by_epoch[1]
        assert sampler.rng_epoch == 2


# --------------------------------------------------------------------------- #
# target_features / BlockBatch
# --------------------------------------------------------------------------- #
def test_target_features_slices_blocks_only(sbm_graph):
    batch = next(iter(NeighborSampler(sbm_graph, [3, 3], batch_size=16, seed=10)))
    block = batch.blocks[0]
    x = Tensor(np.random.default_rng(0).standard_normal(
        (block.num_src, 4)).astype(np.float32))
    sliced = target_features(x, block)
    assert sliced.shape == (block.num_dst, 4)
    np.testing.assert_array_equal(sliced.data, x.data[:block.num_dst])
    assert target_features(x, sbm_graph) is x


def test_block_batch_reports_input_nodes(sbm_graph):
    batch = next(iter(NeighborSampler(sbm_graph, [3, 3], batch_size=16, seed=12)))
    assert isinstance(batch, BlockBatch)
    np.testing.assert_array_equal(batch.input_nodes, batch.blocks[0].src_nodes)
    assert batch.x.shape == (batch.input_nodes.size, sbm_graph.num_features)
