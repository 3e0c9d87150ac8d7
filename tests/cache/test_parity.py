"""Cached vs uncached parity: bit-identical blocks, logits and loss curves.

The cache contract (see ``repro/cache/block_cache.py``) is that attaching a
:class:`~repro.cache.BlockCache` can only change *when* a row is computed,
never *what* it contains.  These property-style tests pin that down across
fanouts (including unlimited), across repeat/overlapping serving requests,
across training epochs, and under eviction pressure (a thrashing two-entry
cache must still be exact).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import BlockCache
from repro.cache.block_cache import _ENTRY_OVERHEAD
from repro.core.build import build_node_model
from repro.graphs.sampling import NeighborSampler, SubgraphBlock
from repro.serving import BlockSession
from repro.training.trainer import train_node_classifier, training_sampler

FANOUTS = [None, 2, 5]


def _assert_batches_identical(batch_a, batch_b):
    np.testing.assert_array_equal(batch_a.seed_nodes, batch_b.seed_nodes)
    np.testing.assert_array_equal(batch_a.x, batch_b.x)
    assert batch_a.num_layers == batch_b.num_layers
    for block_a, block_b in zip(batch_a.blocks, batch_b.blocks):
        for name in ("dst_nodes", "src_nodes", "edge_rows", "edge_cols",
                     "edge_weight", "dst_inv_sqrt", "src_inv_sqrt",
                     "row_scale"):
            np.testing.assert_array_equal(getattr(block_a, name),
                                          getattr(block_b, name),
                                          err_msg=f"block field {name}")


# --------------------------------------------------------------------------- #
# sampler-level parity (the root guarantee everything else rides on)
# --------------------------------------------------------------------------- #
class TestSamplerParity:
    @pytest.mark.parametrize("fanout", FANOUTS)
    def test_cached_blocks_bit_identical(self, sbm_graph, fanout):
        seeds = np.arange(0, sbm_graph.num_nodes, 3, dtype=np.int64)
        plain = NeighborSampler(sbm_graph, [fanout, fanout], batch_size=16,
                                shuffle=False, seed=9)
        cached = NeighborSampler(sbm_graph, [fanout, fanout], batch_size=16,
                                 shuffle=False, seed=9,
                                 cache=BlockCache(max_entries=4096))
        for batch_a, batch_b in zip(plain.iter_batches(seeds),
                                    cached.iter_batches(seeds)):
            _assert_batches_identical(batch_a, batch_b)

    @pytest.mark.parametrize("fanout", [2, 5])
    def test_parity_survives_eviction_thrash(self, sbm_graph, fanout):
        """A cache too small to hold one hop must still be exact."""
        seeds = np.arange(0, sbm_graph.num_nodes, 2, dtype=np.int64)
        plain = NeighborSampler(sbm_graph, [fanout], batch_size=8,
                                shuffle=False, seed=1)
        cached = NeighborSampler(sbm_graph, [fanout], batch_size=8,
                                 shuffle=False, seed=1,
                                 cache=BlockCache(max_entries=2))
        for batch_a, batch_b in zip(plain.iter_batches(seeds),
                                    cached.iter_batches(seeds)):
            _assert_batches_identical(batch_a, batch_b)
        assert cached.cache.stats().evictions > 0

    def test_warm_cache_serves_identical_blocks(self, sbm_graph):
        seeds = np.arange(24, dtype=np.int64)
        sampler = NeighborSampler(sbm_graph, [3, 3], batch_size=8,
                                  shuffle=False, seed=2,
                                  cache=BlockCache(max_entries=4096))
        cold = list(sampler.iter_batches(seeds))
        warm = list(sampler.iter_batches(seeds))
        for batch_a, batch_b in zip(cold, warm):
            _assert_batches_identical(batch_a, batch_b)
        # The repeat pass was served from the batch cache outright.
        assert all(a.blocks is b.blocks for a, b in zip(cold, warm))

    def test_batch_entry_holds_blocks_not_features(self, sbm_graph):
        """A stored batch is its block stack, charged at the blocks' own
        bytes: no feature rows, no labels."""
        seeds = np.arange(8, dtype=np.int64)
        caches, batch = [], None
        for cache_batches in (False, True):
            caches.append(BlockCache(max_entries=4096))
            batch = NeighborSampler(sbm_graph, [3, 3], shuffle=False, seed=2,
                                    cache=caches[-1],
                                    cache_batches=cache_batches).sample(seeds)
        stored = caches[1].get_batch(seeds, [3, 3], 0)
        assert stored is batch.blocks
        assert all(isinstance(block, SubgraphBlock) for block in stored)
        extra = caches[1].stats().bytes - caches[0].stats().bytes
        assert extra == _ENTRY_OVERHEAD + sum(block.nbytes
                                              for block in batch.blocks)

    @pytest.mark.parametrize("fanout", FANOUTS)
    def test_batch_hit_gathers_features_and_labels(self, sbm_graph, fanout):
        seeds = np.asarray([3, 9, 27, 81], dtype=np.int64)
        cached = NeighborSampler(sbm_graph, [fanout, fanout], shuffle=False,
                                 seed=5, cache=BlockCache(max_entries=4096))
        cold = cached.sample(seeds)
        hit = cached.sample(seeds)
        assert hit.blocks is cold.blocks
        plain = NeighborSampler(sbm_graph, [fanout, fanout], shuffle=False,
                                seed=5).sample(seeds)
        for batch in (cold, hit):
            _assert_batches_identical(batch, plain)
            assert batch.x.dtype == plain.x.dtype
            assert batch.x.tobytes() == plain.x.tobytes()
            assert batch.y.dtype == plain.y.dtype
            assert batch.y.tobytes() == plain.y.tobytes()

    def test_epoch_advance_resamples_and_invalidates(self, sbm_graph):
        cache = BlockCache(max_entries=4096)
        sampler = NeighborSampler(sbm_graph, [2, 2], batch_size=16,
                                  shuffle=False, seed=3, cache=cache)
        epoch_one = [batch.blocks[-1] for batch in sampler]
        entries_after_one = len(cache)
        epoch_two = [batch.blocks[-1] for batch in sampler]
        # Different rng-epoch -> different samples (same seeds, no shuffle).
        edges = [set(zip(block.dst_nodes[block.edge_rows].tolist(),
                         block.src_nodes[block.edge_cols].tolist()))
                 for block in epoch_one]
        edges_two = [set(zip(block.dst_nodes[block.edge_rows].tolist(),
                             block.src_nodes[block.edge_cols].tolist()))
                     for block in epoch_two]
        assert edges != edges_two
        # Epoch advance explicitly evicted the stale sampled rows...
        assert cache.stats().evictions > 0
        # ...while raw rows persisted (the store did not start from zero).
        assert entries_after_one > 0 and len(cache) > 0

    def test_sampling_is_a_pure_function_of_request(self, sbm_graph):
        """Same sampler, same seeds -> same blocks, no matter what ran
        in between (the property that makes caching safe at all)."""
        sampler = NeighborSampler(sbm_graph, [3, 3], batch_size=8,
                                  shuffle=False, seed=4)
        seeds = np.asarray([5, 17, 40, 41], dtype=np.int64)
        before = sampler.sample(seeds)
        list(sampler.iter_batches(np.arange(60, dtype=np.int64)))  # interleave
        after = sampler.sample(seeds)
        _assert_batches_identical(before, after)


# --------------------------------------------------------------------------- #
# serving-side parity
# --------------------------------------------------------------------------- #
class TestServingParity:
    @pytest.mark.parametrize("fanout", FANOUTS)
    def test_cached_session_logits_bit_identical(self, cache_artifact,
                                                 small_cora, fanout):
        seeds = np.arange(0, small_cora.num_nodes, 2, dtype=np.int64)
        plain = BlockSession(cache_artifact, small_cora, fanouts=fanout,
                             batch_size=32, seed=7)
        cached = BlockSession(cache_artifact, small_cora, fanouts=fanout,
                              batch_size=32, seed=7, cache_size=65536)
        np.testing.assert_array_equal(cached.predict(seeds),
                                      plain.predict(seeds))

    def test_repeat_and_overlapping_requests(self, cache_artifact, small_cora):
        session = BlockSession(cache_artifact, small_cora, fanouts=4,
                               batch_size=16, seed=0, cache_size=65536)
        reference = BlockSession(cache_artifact, small_cora, fanouts=4,
                                 batch_size=16, seed=0)
        requests = [np.arange(20, dtype=np.int64),
                    np.arange(10, 30, dtype=np.int64),    # overlaps the first
                    np.arange(20, dtype=np.int64)]        # exact repeat
        for nodes in requests:
            np.testing.assert_array_equal(session.predict(nodes),
                                          reference.predict(nodes))
        stats = session.cache_stats()
        assert stats is not None and stats.hits > 0
        assert reference.cache_stats() is None

    def test_warm_cache_hits_dominate_on_repeat(self, cache_artifact,
                                                small_cora):
        session = BlockSession(cache_artifact, small_cora, fanouts=4,
                               batch_size=32, seed=0, cache_size=65536)
        nodes = np.arange(40, dtype=np.int64)
        first = session.predict(nodes)
        cold = session.cache_stats()
        second = session.predict(nodes)
        warm = session.cache_stats()
        np.testing.assert_array_equal(first, second)
        # The repeat request was answered from the batch cache: exactly the
        # per-micro-batch lookups were added, all of them hits.
        assert warm.misses == cold.misses
        assert warm.hits > cold.hits


# --------------------------------------------------------------------------- #
# attention (score-plan) serving parity: migrated to the unified parity
# matrix (tests/parity_matrix.py, integer × cached / served rows — every
# conv family × head count, not just GAT).
# --------------------------------------------------------------------------- #


# --------------------------------------------------------------------------- #
# training-side parity
# --------------------------------------------------------------------------- #
class TestTrainingParity:
    @pytest.mark.parametrize("fanout", [None, 3])
    def test_loss_history_bit_identical(self, sbm_graph, fanout):
        histories = []
        caches = []
        for cache_size in (0, 65536):
            model = build_node_model("gcn", sbm_graph.num_features, 16,
                                     sbm_graph.num_classes,
                                     rng=np.random.default_rng(11), dropout=0.0)
            sampler = training_sampler(model, sbm_graph, fanout, batch_size=32,
                                       seed=13, cache_size=cache_size)
            result = train_node_classifier(model, sbm_graph, epochs=4,
                                           sampler=sampler)
            histories.append(result.loss_history)
            caches.append(sampler.cache)
        assert histories[0] == histories[1]     # bit-identical, not approx
        assert caches[0] is None
        assert caches[1] is not None and caches[1].stats().hits > 0

    def test_trainer_cache_invalidation_across_epochs(self, sbm_graph):
        model = build_node_model("gcn", sbm_graph.num_features, 16,
                                 sbm_graph.num_classes,
                                 rng=np.random.default_rng(0), dropout=0.0)
        sampler = training_sampler(model, sbm_graph, 2, batch_size=32,
                                   seed=5, cache_size=65536)
        train_node_classifier(model, sbm_graph, epochs=3, sampler=sampler)
        stats = sampler.cache.stats()
        # Sampled rows were evicted on every rng-epoch advance, yet the
        # deterministic raw rows kept producing hits in later epochs.
        assert stats.evictions > 0
        assert stats.hits > 0
