"""LRU store semantics: eviction order, capacity bounds, stats accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import ROW_FINAL, ROW_RAW, BlockCache, LRUCache


class TestLRUCache:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            LRUCache(0)
        with pytest.raises(ValueError):
            LRUCache(4, max_bytes=0)

    def test_get_put_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing", "default") == "default"
        assert "a" in cache and "missing" not in cache
        assert len(cache) == 1

    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key)
        cache.get("a")           # refresh a: eviction order is now b, c, a
        cache.put("d", "d")      # evicts b
        assert "b" not in cache
        assert cache.keys() == ["c", "a", "d"]
        cache.put("e", "e")      # evicts c
        assert cache.keys() == ["a", "d", "e"]
        assert cache.stats().evictions == 2

    def test_put_refreshes_recency_and_replaces(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)       # replace refreshes a to most recent
        cache.put("c", 3)        # evicts b, not a
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_capacity_never_exceeded(self):
        cache = LRUCache(5)
        for index in range(50):
            cache.put(index, index)
            assert len(cache) <= 5
        stats = cache.stats()
        assert stats.entries == 5
        assert stats.evictions == 45

    def test_byte_budget_enforced(self):
        cache = LRUCache(100, max_bytes=100)
        for index in range(10):
            cache.put(index, index, nbytes=30)
        assert cache.nbytes <= 100
        assert len(cache) == 3

    def test_oversized_entry_rejected_not_thrashing(self):
        cache = LRUCache(100, max_bytes=100)
        for index in range(3):
            cache.put(index, index, nbytes=30)
        # An entry that could never fit is refused outright instead of
        # wiping the warm entries and sitting over budget.
        cache.put("giant", "g", nbytes=1000)
        assert "giant" not in cache
        assert len(cache) == 3 and cache.nbytes == 90
        # Replacing an existing key with an oversized value keeps the old
        # entry (the store is never mutated by a refused put).
        cache.put(0, "huge", nbytes=1000)
        assert cache.peek(0) == 0 and len(cache) == 3
        assert cache.stats().evictions == 0

    def test_replacing_updates_byte_accounting(self):
        cache = LRUCache(10, max_bytes=1000)
        cache.put("a", 1, nbytes=400)
        cache.put("a", 2, nbytes=100)
        assert cache.nbytes == 100

    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.get_many(["a", "b", "a"])
        stats = cache.stats()
        assert stats.hits == 3
        assert stats.misses == 2
        assert stats.lookups == 5
        assert stats.hit_rate() == pytest.approx(3 / 5)

    def test_quiet_and_peek_do_not_count(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get_quiet("a") == 1
        assert cache.get_quiet("b", "d") == "d"
        assert cache.peek("a") == 1
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0

    def test_quiet_still_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get_quiet("a")
        cache.put("c", 3)        # evicts b (a was refreshed)
        assert "a" in cache and "b" not in cache

    def test_clear_and_pop(self):
        cache = LRUCache(4)
        cache.put("a", 1, nbytes=10)
        cache.put("b", 2, nbytes=10)
        assert cache.pop("a") == 1
        assert cache.stats().evictions == 1   # pop removed a stored entry
        assert cache.pop("a", "gone") == "gone"
        assert cache.stats().evictions == 1   # absent key: nothing removed
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0
        # Every removal counts: one pop + one entry dropped by clear.
        assert cache.stats().evictions == 2

    def test_stats_snapshot_and_repr(self):
        cache = LRUCache(4)
        stats = cache.stats()
        assert stats.hit_rate() == 0.0        # no lookups yet
        cache.put("a", 1, nbytes=8)
        cache.get("a")
        text = repr(cache.stats())
        assert "hits=1" in text and "bytes=8" in text

    def test_evict_where(self):
        cache = LRUCache(10)
        for index in range(6):
            cache.put(("epoch", index % 2, index), index)
        removed = cache.evict_where(lambda key: key[1] == 0)
        assert removed == 3
        assert all(key[1] == 1 for key in cache.keys())


class TestBlockCacheStore:
    def _rows(self, sizes):
        return [(np.arange(size, dtype=np.int64),
                 np.ones(size, dtype=np.float32)) for size in sizes]

    def test_raw_rows_roundtrip_and_kinds(self):
        cache = BlockCache(max_entries=16)
        nodes = np.asarray([3, 7])
        cache.put_raw_rows(nodes, self._rows([2, 9]))
        # fanout=None: both rows come back final
        entries = cache.get_rows(nodes, None, hop=0, epoch=0)
        assert [entry[0] for entry in entries] == ["final", "final"]
        # fanout=4: the 9-edge row needs the cap applied
        entries = cache.get_rows(nodes, 4, hop=0, epoch=0)
        assert [entry[0] for entry in entries] == ["final", "raw"]
        # a miss shows up as None
        entries = cache.get_rows(np.asarray([3, 99]), None, hop=0, epoch=0)
        assert entries[0] is not None and entries[1] is None

    def test_capped_rows_preferred_over_raw(self):
        cache = BlockCache(max_entries=16)
        nodes = np.asarray([5])
        cache.put_raw_rows(nodes, self._rows([9]))
        capped = [(np.asarray([1, 2], dtype=np.int64),
                   np.asarray([1.0, 1.0], dtype=np.float32))]
        cache.put_capped_rows(nodes, 2, hop=1, epoch=3, rows=capped)
        entry = cache.get_rows(nodes, 2, hop=1, epoch=3)[0]
        assert entry[0] == "final" and entry[1].shape[0] == 2
        # a different hop/epoch falls back to the raw row
        assert cache.get_rows(nodes, 2, hop=0, epoch=3)[0][0] == "raw"
        assert cache.get_rows(nodes, 2, hop=1, epoch=4)[0][0] == "raw"

    def test_invalidate_epochs_keeps_raw_rows(self):
        cache = BlockCache(max_entries=64)
        nodes = np.asarray([1, 2])
        cache.put_raw_rows(nodes, self._rows([3, 3]))
        cache.put_capped_rows(nodes, 2, hop=0, epoch=1, rows=self._rows([2, 2]))
        cache.put_capped_rows(nodes, 2, hop=0, epoch=2, rows=self._rows([2, 2]))
        before = len(cache)
        dropped = cache.invalidate_epochs(2)
        assert dropped == 2                    # the epoch-1 sampled rows
        assert len(cache) == before - 2
        # raw rows and current-epoch sampled rows both survive
        assert cache.get_rows(nodes, None, 0, 0)[0] is not None
        assert cache.get_rows(nodes, 2, hop=0, epoch=2)[0][0] == "final"

    def test_logical_hit_miss_counting(self):
        cache = BlockCache(max_entries=16)
        nodes = np.asarray([1, 2])
        cache.get_rows(nodes, 4, hop=0, epoch=0)       # 2 logical misses
        cache.put_raw_rows(nodes, self._rows([2, 2]))
        cache.get_rows(nodes, 4, hop=0, epoch=0)       # 2 logical hits
        stats = cache.stats()
        # The raw-row fall-through probe must not double-count.
        assert stats.hits == 2 and stats.misses == 2
        assert stats.hit_rate() == pytest.approx(0.5)

    def test_size_bound_evicts(self):
        cache = BlockCache(max_entries=4)
        nodes = np.arange(10)
        cache.put_raw_rows(nodes, self._rows([2] * 10))
        assert len(cache) == 4
        assert cache.stats().evictions == 6
        assert cache.hit_rate() == 0.0
        assert "BlockCache" in repr(cache)
        cache.clear()
        assert len(cache) == 0

    def test_batch_probe_and_count_atomic(self):
        """get_batch counts its probe under the same locks as get_rows, so
        counters are exact however the lookups interleave across threads."""
        import threading

        cache = BlockCache(max_entries=256)
        seeds_hit = np.asarray([1, 2], dtype=np.int64)
        seeds_miss = np.asarray([8, 9], dtype=np.int64)
        payload = []  # a stored block stack
        cache.put_batch(seeds_hit, (4,), epoch=0, batch=payload)
        cache.put_raw_rows(np.asarray([1]), self._rows([2]))
        rounds = 200
        threads_per_kind = 3

        def batch_worker():
            for _ in range(rounds):
                assert cache.get_batch(seeds_hit, (4,), epoch=0) is payload
                assert cache.get_batch(seeds_miss, (4,), epoch=0) is None

        def rows_worker():
            for _ in range(rounds):
                entries = cache.get_rows(np.asarray([1, 99]), None,
                                         hop=0, epoch=0)
                assert entries[0] is not None and entries[1] is None

        threads = [threading.Thread(target=target)
                   for target in (batch_worker, rows_worker)
                   for _ in range(threads_per_kind)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats()
        # every logical lookup is counted exactly once, no probe lost
        expected = threads_per_kind * rounds * 2
        assert stats.hits == expected
        assert stats.misses == expected
        assert stats.lookups == 2 * expected

    def test_concurrent_stores_keep_every_live_name_indexed(self):
        """Writers racing through put_batch's prunes and put_capped_rows
        never lose a live name: one invalidation afterwards pops every
        batch and every capped row it is given."""
        import sys
        import threading

        cache = BlockCache(max_entries=96)
        rounds, writers = 300, 4

        def writer(index):
            for step in range(rounds):
                seeds = np.asarray([index, step], dtype=np.int64)
                cache.put_batch(seeds, (4,), epoch=0, batch=[])
                cache.put_capped_rows([index], 4, hop=step % 3, epoch=0,
                                      rows=self._rows([step]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(index,))
                       for index in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        live = cache._lru.keys()
        assert any(key[0] == "bat" for key in live)
        cache.invalidate_nodes(np.arange(writers))
        assert not [key for key in cache._lru.keys()
                    if key[0] in ("bat", "blk")]


class TestRowProbe:
    """``get_rows`` probes the raw key first and the capped key only for a
    long raw row or a missing one; each row still counts once."""

    FANOUT = 3

    def _row(self, size, start=0):
        return (np.arange(start, start + size, dtype=np.int64),
                np.ones(size, dtype=np.float32))

    def _warm_cache(self):
        cache = BlockCache(max_entries=64)
        long_raw, short_raw = self._row(8), self._row(2, start=40)
        capped, shard_capped = self._row(3, start=10), self._row(3, start=20)
        # node 1: long row stored raw and capped; node 2: capped only (the
        # shape a row shipped capped by a shard owner is stored in);
        # node 3: long row stored raw only; node 4: short raw row.
        cache.put_raw_rows([1, 3, 4], [long_raw, long_raw, short_raw])
        cache.put_capped_rows([1, 2], self.FANOUT, hop=0, epoch=0,
                              rows=[capped, shard_capped])
        return cache, {"capped": capped, "shard_capped": shard_capped,
                       "long_raw": long_raw, "short_raw": short_raw}

    def test_each_stored_shape_resolves(self):
        cache, rows = self._warm_cache()
        both, capped_only, raw_only, short, miss = cache.get_rows(
            [1, 2, 3, 4, 5], self.FANOUT, hop=0, epoch=0)
        assert both[0] == ROW_FINAL and both[1] is rows["capped"][0]
        assert capped_only[0] == ROW_FINAL
        assert capped_only[1] is rows["shard_capped"][0]
        assert raw_only[0] == ROW_RAW and raw_only[1] is rows["long_raw"][0]
        assert short[0] == ROW_FINAL and short[1] is rows["short_raw"][0]
        assert miss is None

    def test_capped_key_needs_its_hop_epoch_and_version(self):
        cache, _ = self._warm_cache()
        for kwargs in ({"hop": 1, "epoch": 0}, {"hop": 0, "epoch": 1}):
            entries = cache.get_rows([1, 2], self.FANOUT, **kwargs)
            assert entries[0][0] == ROW_RAW and entries[1] is None
        entries = cache.get_rows([1, 2], self.FANOUT, hop=0, epoch=0,
                                 versions=np.asarray([1, 1]))
        assert entries == [None, None]

    def test_list_and_int64_array_agree(self):
        cache, _ = self._warm_cache()
        ids = [1, 2, 3, 4, 5]
        versions = [0, 0, 0, 0, 0]
        from_list = cache.get_rows(ids, self.FANOUT, 0, 0, versions=versions)
        from_array = cache.get_rows(
            np.asarray(ids, dtype=np.int64), self.FANOUT, 0, 0,
            versions=np.asarray(versions, dtype=np.int64))
        for a, b in zip(from_list, from_array):
            assert (a is None and b is None) or (a[0] == b[0] and a[1] is b[1])

    def test_scripted_hit_miss_counts(self):
        cache, _ = self._warm_cache()
        cache.get_rows([1, 2, 3, 4, 5], self.FANOUT, 0, 0)  # 4 hits, 1 miss
        cache.get_rows([2, 3], None, 0, 0)        # 2 is capped only: 1, 1
        cache.get_rows([1, 2], self.FANOUT, 1, 0)  # other hop: 1 hit, 1 miss
        cache.get_rows([], self.FANOUT, 0, 0)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (6, 3)
