"""affected_region reachability, version counters, scoped invalidation."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cache.block_cache import BlockCache
from repro.graphs.graph import Graph
from repro.streaming import RegionVersions, affected_region


def _path_graph(n=8):
    """0 -> 1 -> 2 -> ... -> n-1 (directed chain)."""
    src = np.arange(n - 1)
    dst = np.arange(1, n)
    return Graph(np.zeros((n, 2), dtype=np.float32), np.stack([src, dst]))


class TestAffectedRegion:
    def test_chain_reachability_is_hop_bounded(self):
        """On 0->1->...->7, the reverse k-hop region of {4} is {4-k .. 4}."""
        graph = _path_graph(8)
        for hops in range(4):
            region = affected_region(graph, np.asarray([4]), hops)
            np.testing.assert_array_equal(region,
                                          np.arange(4 - hops, 5))

    def test_matches_powers_of_the_reverse_adjacency(self):
        """Random graph with empty rows, duplicate edges and self loops:
        the region is the support of (I + A^T)^k applied to the touched
        set."""
        rng = np.random.default_rng(3)
        edges = rng.integers(0, 30, size=(2, 45))
        edges[:, :3] = [[7, 7, 12], [7, 9, 12]]
        graph = Graph(np.zeros((40, 2), dtype=np.float32), edges)
        step = np.eye(40, dtype=np.int64)
        step[edges[0], edges[1]] = 1
        touched = np.asarray([9, 12, 35])
        reached = np.zeros(40, dtype=np.int64)
        reached[touched] = 1
        for hops in range(4):
            np.testing.assert_array_equal(
                affected_region(graph, touched, hops), np.flatnonzero(reached))
            reached = step @ reached

    def test_zero_hops_returns_touched_set(self):
        graph = _path_graph(5)
        np.testing.assert_array_equal(
            affected_region(graph, np.asarray([3, 1, 3]), 0), [1, 3])

    def test_empty_touched_set(self):
        graph = _path_graph(5)
        assert affected_region(graph, np.asarray([], dtype=np.int64),
                               2).size == 0

    def test_rejects_out_of_range(self):
        graph = _path_graph(5)
        with pytest.raises(ValueError):
            affected_region(graph, np.asarray([5]), 1)

    def test_region_never_exceeds_graph(self):
        graph = _path_graph(6)
        region = affected_region(graph, np.asarray([5]), 99)
        np.testing.assert_array_equal(region, np.arange(6))


class TestRegionVersions:
    def test_bump_scopes_to_given_nodes(self):
        versions = RegionVersions(6)
        versions.bump(np.asarray([2]), np.asarray([1, 2, 3]))
        np.testing.assert_array_equal(
            versions.row_versions(np.arange(6)), [0, 0, 1, 0, 0, 0])
        tag_all = np.frombuffer(versions.region_tag(np.arange(6)), np.int64)
        np.testing.assert_array_equal(tag_all, [0, 1, 1, 1, 0, 0])

    def test_region_tag_is_order_sensitive_full_vector(self):
        """The batch tag must distinguish per-seed versions, not just a max."""
        versions = RegionVersions(4)
        versions.bump(np.asarray([], dtype=np.int64), np.asarray([1]))
        tag_01 = versions.region_tag(np.asarray([0, 1]))
        versions_other = RegionVersions(4)
        versions_other.bump(np.asarray([], dtype=np.int64), np.asarray([0]))
        tag_10 = versions_other.region_tag(np.asarray([0, 1]))
        assert tag_01 != tag_10  # same max version, different vectors

    def test_repeated_bumps_accumulate(self):
        versions = RegionVersions(3)
        versions.bump(np.asarray([0]), np.asarray([0, 1]))
        versions.bump(np.asarray([0]), np.asarray([0]))
        np.testing.assert_array_equal(versions.row_versions(np.asarray([0])),
                                      [2])


class TestInvalidateNodes:
    def _warm_cache(self):
        cache = BlockCache(max_entries=64)
        for node in range(4):
            cache.put_raw_rows([node],
                               [(np.asarray([node + 1]), np.asarray([1.0]))])
        seeds = np.asarray([0, 1], dtype=np.int64)
        payload = SimpleNamespace(x=np.zeros(4), y=None, blocks=[])
        cache.put_batch(seeds, (5,), 0, payload)
        return cache, seeds, payload

    def test_evicts_only_named_nodes(self):
        cache, seeds, payload = self._warm_cache()
        evicted = cache.invalidate_nodes(np.asarray([2]))
        assert evicted == 1
        # untouched row entries still hit; the evicted one misses
        entries = cache.get_rows([0, 1, 3], fanout=None, hop=0, epoch=0)
        assert all(entry is not None for entry in entries)
        assert cache.get_rows([2], fanout=None, hop=0, epoch=0) == [None]

    def test_evicts_batches_touching_region(self):
        cache, seeds, payload = self._warm_cache()
        assert cache.get_batch(seeds, (5,), 0) is payload
        cache.invalidate_nodes(np.asarray([1]))
        assert cache.get_batch(seeds, (5,), 0) is None

    def test_keeps_batches_outside_region(self):
        cache, seeds, payload = self._warm_cache()
        cache.invalidate_nodes(np.asarray([3]))
        assert cache.get_batch(seeds, (5,), 0) is payload

    def test_versioned_keys_make_stale_entries_unreachable(self):
        """Even without eviction, a bumped version misses by key."""
        cache = BlockCache(max_entries=16)
        versions = RegionVersions(4)
        rows = [(np.asarray([1]), np.asarray([1.0]))]
        cache.put_raw_rows([0], rows,
                           versions=[int(v) for v
                                     in versions.row_versions([0])])
        assert cache.get_rows([0], fanout=None, hop=0, epoch=0,
                              versions=versions.row_versions([0]))[0] \
            is not None
        versions.bump(np.asarray([0]), np.asarray([0]))
        assert cache.get_rows([0], fanout=None, hop=0, epoch=0,
                              versions=versions.row_versions([0])) == [None]
