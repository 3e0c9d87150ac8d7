"""Shared block cache for neighbor-sampled receptive fields.

Both halves of the system resample identical neighbourhoods over and over:
the serving-side :class:`~repro.serving.session.BlockSession` rebuilds the
receptive field of every ``repro predict`` request, and sampled training
(the sampler of :func:`~repro.training.trainer.training_sampler`) resamples
the same low-degree neighbourhoods every epoch.  :class:`BlockCache` is the one
store both consumers share, holding three kinds of entries in a single
size-bounded LRU:

* **raw rows** — a node's full adjacency row (gathered from the
  adjacency's CSR arrays), valid for every fanout, hop and rng-epoch
  because nothing random touched it;
* **sampled rows** — a node's fanout-capped row, keyed by
  ``(node, fanout, hop, rng-epoch)``; reusable only while the sampler stays
  in the same rng-epoch and explicitly invalidated when it advances;
* **batches** — the sampled :class:`~repro.graphs.sampling.SubgraphBlock`
  stack of a whole batch, keyed by the exact seed list, so a byte-identical
  repeat request is served without resampling.  An entry holds no feature
  rows or labels: the sampler gathers those from the graph on a hit, so
  the cache never duplicates data the graph already holds.

The contract that makes caching safe is established in
:mod:`repro.graphs.sampling`: a node's sampled neighbourhood is a pure
function of ``(sampler seed, rng-epoch, hop, node)``, never of batch
composition or iteration order.  A cache therefore can only change *when*
a row is computed, not *what* it contains — cached and uncached paths are
bit-identical, which the parity harness in ``tests/cache`` asserts.

A cache binds to one sampler configuration (one graph, one sampler seed):
entries are keyed by node ids and sampler-local quantities only.  The
consumers (a training sampler, :class:`BlockSession`) each build a
private cache, which keeps that invariant without bookkeeping.

Streaming graphs extend every key with a *graph-version* component:
row-shaped entries carry the node's
:attr:`~repro.graphs.graph.Graph.row_version`, batch entries the graph's
:attr:`~repro.graphs.graph.Graph.version`.  A row entry holds only the raw
row (degree terms are applied at block build), so it goes stale only when
its own row changes; an update therefore strands the row entries of the
rows it changed and every batch, while all other rows stay warm.  A batch
hit is exact even after a feature-only delta, which writes ``graph.x`` in
place: that delta too advances the version, so the stack is only reused
at the version whose features the sampler then gathers.
:meth:`BlockCache.invalidate_nodes` additionally evicts the stranded
entries — a memory optimisation, never a correctness requirement — by
name: the cache remembers the ``(fanout, hop, epoch)`` triples it stored
capped rows under and the batch keys stored since the last update, so an
update pops O(changed rows) keys instead of scanning the store.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cache.lru import CacheStats, LRUCache

#: Kind tags returned by :meth:`BlockCache.get_rows`.
ROW_FINAL = "final"
ROW_RAW = "raw"

#: Fixed per-entry bookkeeping overhead added to array payloads.
_ENTRY_OVERHEAD = 96

#: Floor of the batch-key index's prune threshold (see
#: :meth:`BlockCache.put_batch`).
_MIN_BATCH_PRUNE = 64


def _rows_nbytes(cols: np.ndarray, weights: np.ndarray) -> int:
    return int(cols.nbytes) + int(weights.nbytes) + _ENTRY_OVERHEAD


def _batch_nbytes(blocks: Sequence[Any]) -> int:
    """Footprint of a stored block stack: each block's ``nbytes``."""
    return _ENTRY_OVERHEAD + sum(int(block.nbytes) for block in blocks)


class BlockCache:
    """Seeded, size-bounded LRU over per-seed sampled rows and block stacks.

    Parameters
    ----------
    max_entries:
        Entry-count bound of the underlying LRU.
    max_bytes:
        Optional byte budget over the summed array payloads.
    """

    def __init__(self, max_entries: int = 65536,
                 max_bytes: Optional[int] = None) -> None:
        self._lru = LRUCache(max_entries, max_bytes=max_bytes)
        # One logical hit/miss per *row or batch lookup* (a probe that falls
        # through from the raw-row key to the sampled-row key still counts
        # once), so hit_rate() reads as "fraction of work served from cache".
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: self._lock
        self._misses = 0  # guarded-by: self._lock
        # Names of what an update may have to pop: the (fanout, hop, epoch)
        # triples capped rows were stored under, and the batch keys stored
        # since the last invalidation (pruned of evicted names whenever it
        # doubles, so it stays bounded on a graph that never updates).
        self._capped_kinds: Set[Tuple[int, int, int]]
        self._capped_kinds = set()  # guarded-by: self._lock
        self._batch_keys: Set[Hashable]
        self._batch_keys = set()  # guarded-by: self._lock
        self._batch_prune_at = _MIN_BATCH_PRUNE  # guarded-by: self._lock

    # ------------------------------------------------------------------ #
    # per-seed rows
    # ------------------------------------------------------------------ #
    def get_rows(self, nodes: np.ndarray, fanout: Optional[int], hop: int,
                 epoch: int, versions: Optional[np.ndarray] = None,
                 ) -> List[Optional[Tuple[str, np.ndarray, np.ndarray]]]:
        """Resolve each node's row for ``(fanout, hop, epoch)``.

        ``versions`` holds each node's row version (aligned with
        ``nodes``); omitted means version 0 everywhere, which static
        graphs never advance.  Returns one entry per node: ``None`` on a
        miss, ``(ROW_FINAL, cols, weights)`` when the cached row is
        directly usable, or ``(ROW_RAW, cols, weights)`` when a raw row
        was found but still needs the fanout cap applied (its length
        exceeds ``fanout``).
        """
        node_ids = np.asarray(nodes).tolist()
        row_versions = [0] * len(node_ids) if versions is None \
            else np.asarray(versions).tolist()
        results: List[Optional[Tuple[str, np.ndarray, np.ndarray]]] = []
        misses = 0
        probe = self._lru.get_quiet
        # One hop probes every target: hold both locks across the loop so
        # the per-node get_quiet calls re-enter instead of re-contending.
        with self._lock, self._lru.lock:
            for node, version in zip(node_ids, row_versions):
                # The raw row first: a row no longer than the fanout is its
                # own capped row, so that is the one lookup of a warm row.
                raw = probe(("row", node, version), None)
                if raw is not None and (fanout is None
                                        or raw[0].shape[0] <= fanout):
                    results.append((ROW_FINAL, raw[0], raw[1]))
                    continue
                # A long raw row, or none: a row that arrived capped from a
                # shard owner is stored under the capped key only.
                capped = None if fanout is None else probe(
                    ("blk", node, fanout, hop, epoch, version), None)
                if capped is not None:
                    results.append((ROW_FINAL, capped[0], capped[1]))
                elif raw is not None:
                    results.append((ROW_RAW, raw[0], raw[1]))
                else:
                    misses += 1
                    results.append(None)
            self._hits += len(results) - misses
            self._misses += misses
        return results

    def put_raw_rows(self, nodes: Sequence[int],
                     rows: Sequence[Tuple[np.ndarray, np.ndarray]],
                     versions: Optional[Sequence[int]] = None) -> None:
        """Store full adjacency rows (epoch/fanout/hop independent)."""
        if versions is None:
            versions = [0] * len(nodes)
        self._lru.put_many([
            (("row", int(node), int(version)), (cols, weights),
             _rows_nbytes(cols, weights))
            for node, version, (cols, weights) in zip(nodes, versions, rows)])

    def put_capped_rows(self, nodes: Sequence[int], fanout: int, hop: int,
                        epoch: int,
                        rows: Sequence[Tuple[np.ndarray, np.ndarray]],
                        versions: Optional[Sequence[int]] = None) -> None:
        """Store fanout-capped rows under their ``(node, fanout, hop, epoch,
        version)`` key; dropped wholesale when the rng-epoch advances."""
        if versions is None:
            versions = [0] * len(nodes)
        with self._lock:
            self._capped_kinds.add((fanout, hop, epoch))
        self._lru.put_many([
            (("blk", int(node), fanout, hop, epoch, int(version)),
             (cols, weights), _rows_nbytes(cols, weights))
            for node, version, (cols, weights) in zip(nodes, versions, rows)])

    # ------------------------------------------------------------------ #
    # whole batches
    # ------------------------------------------------------------------ #
    @staticmethod
    def _batch_key(seeds: np.ndarray, fanouts: Sequence[Optional[int]],
                   epoch: int, version: int = 0) -> Tuple:
        return ("bat", seeds.tobytes(), tuple(fanouts), epoch, version)

    def get_batch(self, seeds: np.ndarray, fanouts: Sequence[Optional[int]],
                  epoch: int, version: int = 0) -> Optional[List[Any]]:
        """The block stack previously sampled for the exact same seed list,
        or None.

        ``version`` is the graph's :attr:`~repro.graphs.graph.Graph.version`
        the stack was sampled at; static graphs stay at 0.  The probe and its
        counter update happen under both locks (same order as
        :meth:`get_rows`), so concurrent readers never observe a probe
        whose hit/miss has not been counted yet.
        """
        with self._lock, self._lru.lock:
            batch = self._lru.get_quiet(
                self._batch_key(seeds, fanouts, epoch, version), None)
            if batch is None:
                self._misses += 1
            else:
                self._hits += 1
        return batch

    def put_batch(self, seeds: np.ndarray, fanouts: Sequence[Optional[int]],
                  epoch: int, batch: List[Any], version: int = 0) -> None:
        """Store ``batch``, the seed list's sampled block stack (innermost
        hop first), charged at the blocks' own ``nbytes``.

        The key also goes into the index :meth:`invalidate_nodes` pops by
        name.  Whenever the index reaches twice its size after the last
        prune, names the LRU has since evicted are dropped from it, so its
        length stays within twice the live batch entries (plus a small
        floor) at amortised O(1) per store.
        """
        key = self._batch_key(seeds, fanouts, epoch, version)
        with self._lock, self._lru.lock:
            self._lru.put(key, batch, _batch_nbytes(batch))
            self._batch_keys.add(key)
            if len(self._batch_keys) >= self._batch_prune_at:
                self._batch_keys = {name for name in self._batch_keys
                                    if name in self._lru}
                self._batch_prune_at = max(2 * len(self._batch_keys),
                                           _MIN_BATCH_PRUNE)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def invalidate_epochs(self, current_epoch: int) -> int:
        """Explicitly evict sampled rows and batches of *other* rng-epochs.

        Raw rows survive: they carry no randomness.  Returns the number of
        entries dropped.  Called by the sampler whenever it advances its
        rng-epoch (one advance per training epoch).
        """
        def stale(key: Tuple) -> bool:
            if key[0] == "blk":
                return bool(key[4] != current_epoch)
            if key[0] == "bat":
                return bool(key[3] != current_epoch)
            return False

        with self._lock:
            self._capped_kinds = {kind for kind in self._capped_kinds
                                  if kind[2] == current_epoch}
        return self._lru.evict_where(stale)

    def invalidate_nodes(self, nodes: np.ndarray,
                         versions: Optional[np.ndarray] = None) -> int:
        """Evict, by name, the entries a streaming update made unreachable.

        ``nodes`` are the rows the update changed and ``versions`` their
        row versions *before* it (aligned with ``nodes``; omitted means 0,
        as in every other method).  Pops each row's raw key
        ``("row", node, version)``, its capped key for every ``(fanout,
        hop, epoch)`` capped rows were stored under, and every batch key
        stored since the last invalidation — the graph version batches
        are keyed by advances on every update.  Nothing is scanned: an
        entry stored under an even older version was popped at that row's
        previous update, so only the pre-update version can hold entries.

        Purely a memory/accounting measure: the versioned keys already
        guarantee stale entries are never *served*.  Returns the number of
        entries removed (names the LRU had already evicted do not count)
        and leaves the logical hit/miss counters untouched, so a measured
        window that contains updates still reports a monotone hit-rate.
        """
        node_ids = np.asarray(nodes).reshape(-1).tolist()
        row_versions = [0] * len(node_ids) if versions is None \
            else np.asarray(versions).reshape(-1).tolist()
        with self._lock, self._lru.lock:
            names: List[Hashable] = list(self._batch_keys)
            for node, version in zip(node_ids, row_versions):
                names.append(("row", node, version))
                names.extend(("blk", node, fanout, hop, epoch, version)
                             for fanout, hop, epoch in self._capped_kinds)
            self._batch_keys = set()
            self._batch_prune_at = _MIN_BATCH_PRUNE
            pop = self._lru.pop
            return sum(pop(name) is not None for name in names)

    def clear(self) -> None:
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> CacheStats:
        """Logical hit/miss counters plus the store's size/eviction counters."""
        store = self._lru.stats()
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=store.evictions, entries=store.entries,
                              bytes=store.bytes)

    def hit_rate(self) -> float:
        return self.stats().hit_rate()

    def __repr__(self) -> str:
        return f"BlockCache({self.stats()!r})"
