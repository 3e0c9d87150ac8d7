"""Fanout-limited neighbor sampling for minibatch training (GraphSAGE-style).

Full-batch training keeps every node's activations alive for every layer,
which caps the graph sizes the reproduction can touch.  This module bounds
per-step cost by materialising, for each minibatch of *seed* nodes, one
bipartite :class:`SubgraphBlock` per GNN layer: the block's target side is
the nodes whose embeddings the layer must produce, its source side is those
targets plus a fanout-capped sample of their in-neighbourhood.  Stacking
``L`` blocks yields exactly the receptive field an ``L``-layer network needs
for the seeds — nothing else is ever touched.

Sampling is a vectorized CSR operation end to end: target rows are
gathered straight out of the adjacency's ``indptr`` / ``indices`` /
``data`` with numpy index arithmetic, the fanout cap is applied with one
random-key sort over the gathered non-zeros, node renumbering uses a
reusable global->local lookup table, and each block operator is built as
canonical CSR from the sampled edges with one stable sort — the arrays the
serving kernels then multiply by.  No Python-level per-node loops.

The random keys are *counter-based*: each edge's key is a SplitMix64 hash of
``(sampler seed, rng-epoch, hop, target node, edge position)`` rather than a
draw from a sequential generator stream.  A node's sampled neighbourhood is
therefore a pure function of those five values — independent of batch
composition, batch order, or how many batches were drawn before it.  That is
what makes seeded runs reproducible regardless of iteration order, and what
lets a :class:`~repro.cache.BlockCache` reuse per-seed rows with *bit
identical* results: a cache can only change when a row is computed, never
what it contains.  The rng-epoch advances once per ``__iter__`` epoch (so
training still resamples every epoch, and cached sampled rows are explicitly
invalidated), while explicit :meth:`NeighborSampler.sample` /
:meth:`NeighborSampler.iter_batches` calls — the serving path — stay in the
current epoch and enjoy warm caches across requests.

Degree renormalisation keeps sampled operators unbiased:

* the mean (GraphSAGE) operator divides each row by its *sampled* degree;
* the GCN operator uses the full graph's symmetric normalisation
  ``D^{-1/2}(A + I)D^{-1/2}`` on the sampled edges, rescaled per row by
  ``full_degree / sampled_degree`` so dropped neighbours are compensated.

With unlimited fanout both operators reproduce the full-batch operators
exactly (restricted to the block's rows), which is what makes minibatch
training with ``fanout=None`` numerically identical to full-batch training.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.graph import Graph
from repro.tensor.sparse import SparseTensor
from repro.tensor.tensor import Tensor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache stores blocks)
    from repro.cache import BlockCache

#: A per-layer fanout: ``None`` means unlimited (keep every neighbour).
Fanout = Optional[int]

# --------------------------------------------------------------------------- #
# Counter-based random keys (SplitMix64).  Integer overflow wraps, which is
# exactly the arithmetic the mixer wants; numpy only warns for *scalar*
# overflow, so the salt helpers below work on 1-element arrays.
# --------------------------------------------------------------------------- #
_MIX_INCREMENT = np.uint64(0x9E3779B97F4A7C15)
_MIX_MULTIPLIER_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MULTIPLIER_2 = np.uint64(0x94D049BB133111EB)


def _mix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: avalanche a uint64 array element-wise."""
    values = values + _MIX_INCREMENT
    values = (values ^ (values >> np.uint64(30))) * _MIX_MULTIPLIER_1
    values = (values ^ (values >> np.uint64(27))) * _MIX_MULTIPLIER_2
    return values ^ (values >> np.uint64(31))


def _salt(seed: int, epoch: int, hop: int) -> np.uint64:
    """One uint64 salt chaining (seed, rng-epoch, hop)."""
    value = _mix64(np.array([seed % (1 << 64)], dtype=np.uint64))
    value = _mix64(value ^ np.uint64(epoch % (1 << 64)))
    value = _mix64(value ^ np.uint64(hop % (1 << 64)))
    return value[0]


def _edge_keys(node_ids: np.ndarray, positions: np.ndarray,
               salt: np.uint64) -> np.ndarray:
    """Per-edge uint64 sort keys: a pure function of (salt, node, position).

    ``node_ids`` is the *global* target id of each edge and ``positions``
    the edge's index within its row, so a row's keys never depend on which
    other rows share the batch.
    """
    base = _mix64(node_ids.astype(np.uint64) ^ salt)
    return _mix64(base + positions.astype(np.uint64))


class SubgraphBlock:
    """One bipartite message-passing block ``targets <- sources``.

    The first ``num_dst`` sources *are* the targets (self-alignment), so a
    layer's root/update term is simply ``x[:num_dst]``.  The block mirrors
    the adjacency API of :class:`~repro.graphs.graph.Graph`
    (:meth:`adjacency` / :meth:`normalized_adjacency`), which lets the
    existing convolutions — and every quantization wrapper around them —
    consume blocks without code changes.

    Parameters
    ----------
    dst_nodes / src_nodes:
        Global node ids of the target and source sides; ``src_nodes``
        starts with ``dst_nodes``.
    edge_rows / edge_cols:
        Local (renumbered) endpoints of the sampled edges: row indexes
        ``dst_nodes``, column indexes ``src_nodes``.
    edge_weight:
        Original edge weights of the sampled edges.
    dst_inv_sqrt / src_inv_sqrt:
        ``1/sqrt(degree + loop)`` of the global graph for both sides, used
        by the GCN normalisation.
    row_scale:
        Per-target ratio ``full_degree / sampled_degree`` compensating the
        fanout cap (1 when nothing was dropped).
    """

    def __init__(self, dst_nodes: np.ndarray, src_nodes: np.ndarray,
                 edge_rows: np.ndarray, edge_cols: np.ndarray,
                 edge_weight: np.ndarray, dst_inv_sqrt: np.ndarray,
                 src_inv_sqrt: np.ndarray, row_scale: np.ndarray):
        self.dst_nodes = dst_nodes
        self.src_nodes = src_nodes
        self.edge_rows = edge_rows
        self.edge_cols = edge_cols
        self.edge_weight = edge_weight
        self.dst_inv_sqrt = dst_inv_sqrt
        self.src_inv_sqrt = src_inv_sqrt
        self.row_scale = row_scale
        self._cache: dict = {}

    # ------------------------------------------------------------------ #
    @property
    def num_dst(self) -> int:
        return int(self.dst_nodes.shape[0])

    @property
    def num_src(self) -> int:
        return int(self.src_nodes.shape[0])

    @property
    def num_nodes(self) -> int:
        """Source-side size (the rows of the features entering this block)."""
        return self.num_src

    @property
    def num_edges(self) -> int:
        return int(self.edge_rows.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes of the block's own arrays (not of operators built from
        them): what a cached block stack costs the cache's byte budget."""
        return sum(int(value.nbytes) for value in vars(self).values()
                   if isinstance(value, np.ndarray))

    # ------------------------------------------------------------------ #
    def _build(self, values: np.ndarray, add_self_loops: bool,
               loop_values: Optional[np.ndarray] = None) -> SparseTensor:
        """The block operator in canonical CSR, built from the edge arrays.

        One stable sort on ``row * num_src + col`` orders every row by
        column; the only duplicate a row can hold is a graph self-edge and
        its self loop, summed in float32.  That is byte for byte what
        scipy's COO -> CSR conversion produces (a sum of two is the same in
        either order), without its conversion passes and copies.
        """
        rows, cols = self.edge_rows, self.edge_cols
        if add_self_loops:
            loop = np.arange(self.num_dst, dtype=np.int64)
            rows = np.concatenate([rows, loop])
            cols = np.concatenate([cols, loop])
            if loop_values is None:
                loop_values = np.ones(self.num_dst, dtype=np.float32)
            values = np.concatenate([values, loop_values])
        keys = rows * self.num_src + cols
        order = np.argsort(keys, kind="stable")
        keys = np.take(keys, order)
        cols = np.take(cols, order)
        values = np.take(values.astype(np.float32, copy=False), order)
        distinct = np.ones(keys.shape[0], dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        if not distinct.all():
            values = np.add.reduceat(values, np.flatnonzero(distinct))
            keys, cols = keys[distinct], cols[distinct]
        indptr = np.searchsorted(
            keys, np.arange(self.num_dst + 1, dtype=np.int64) * self.num_src)
        # scipy's index dtype for this shape, so wrapping converts nothing.
        index_dtype = np.int32 if max(self.num_dst, self.num_src, keys.shape[0]) \
            <= np.iinfo(np.int32).max else np.int64
        return SparseTensor.from_csr(values, cols.astype(index_dtype),
                                     indptr.astype(index_dtype),
                                     (self.num_dst, self.num_src))

    def adjacency(self, add_self_loops: bool = False) -> SparseTensor:
        """Sampled bipartite adjacency with the original edge weights."""
        key = f"adj_{add_self_loops}"
        if key not in self._cache:
            self._cache[key] = self._build(self.edge_weight, add_self_loops)
        return self._cache[key]

    def normalized_adjacency(self) -> SparseTensor:
        """GCN normalisation on the sampled edges, degree-renormalised.

        Edge values are ``inv_sqrt[u] * w * inv_sqrt[v] * row_scale[u]`` with
        the *global* inverse square-root degrees, plus unscaled self loops
        ``inv_sqrt[u]^2``; at unlimited fanout this is an exact row slice of
        :meth:`Graph.normalized_adjacency`.
        """
        if "gcn_norm" not in self._cache:
            values = (self.dst_inv_sqrt[self.edge_rows] * self.edge_weight
                      * self.src_inv_sqrt[self.edge_cols]
                      * self.row_scale[self.edge_rows])
            loops = self.dst_inv_sqrt * self.dst_inv_sqrt
            self._cache["gcn_norm"] = self._build(values, True, loop_values=loops)
        return self._cache["gcn_norm"]

    def __repr__(self) -> str:
        return (f"SubgraphBlock(dst={self.num_dst}, src={self.num_src}, "
                f"edges={self.num_edges})")


def target_features(x: Tensor, graph: Union[Graph, "SubgraphBlock"]) -> Tensor:
    """Features of the target side: ``x[:num_dst]`` on a block, ``x`` else.

    Because a block's sources start with its targets, this is the only
    adaptation a root/update term needs to run bipartite.
    """
    if isinstance(graph, SubgraphBlock):
        return x[:graph.num_dst]
    return x


class BlockBatch:
    """One minibatch: per-layer blocks plus the seed features and labels.

    ``blocks[0]`` is the innermost hop (consumed by the first convolution);
    ``blocks[-1]`` produces exactly the ``seed_nodes``.  ``x`` holds the
    input features of ``blocks[0].src_nodes`` and ``y`` the labels of the
    seeds, so a model forward plus a loss needs nothing but this object.
    """

    def __init__(self, blocks: List[SubgraphBlock], x: np.ndarray,
                 y: Optional[np.ndarray], seed_nodes: np.ndarray):
        self.blocks = blocks
        self.x = x
        self.y = y
        self.seed_nodes = seed_nodes

    @property
    def input_nodes(self) -> np.ndarray:
        """Global ids whose features feed the first layer."""
        return self.blocks[0].src_nodes

    @property
    def num_seeds(self) -> int:
        return int(self.seed_nodes.shape[0])

    @property
    def num_layers(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return (f"BlockBatch(seeds={self.num_seeds}, layers={self.num_layers}, "
                f"input_nodes={self.input_nodes.shape[0]})")


def _normalize_fanouts(fanouts: Union[Fanout, Sequence[Fanout]],
                       num_layers: Optional[int]) -> List[Fanout]:
    """Broadcast a scalar fanout over ``num_layers`` (one layer when not
    given), require one entry per layer of a sequence, and map non-positive
    values to unlimited."""
    if not isinstance(fanouts, (list, tuple)):
        fanouts = [fanouts] * (num_layers if num_layers is not None else 1)
    elif num_layers is not None and len(fanouts) != num_layers:
        raise ValueError(f"expected {num_layers} fanouts (one per layer), "
                         f"got {len(fanouts)}")
    return [None if f is None or int(f) <= 0 else int(f) for f in fanouts]


def degree_state(graph: Graph, rows: Optional[np.ndarray] = None
                 ) -> Tuple[SparseTensor, np.ndarray, np.ndarray]:
    """``(adjacency, row_weight, inv_sqrt)``: the loop-free adjacency, each
    row's float32 edge weight and the GCN ``1/sqrt(degree)``.

    ``rows`` restricts the two vectors to those rows (in that order); each
    entry is a function of its own row alone, summed over the same entries
    in the same order, so it is bitwise the full result at ``rows``.  The
    only derivation — a fresh sampler, a streamed one after an update
    (``rows`` = the changed rows) and a shard worker (handed the full
    graph's vectors by the router) all read it, so their float32 roundings
    cannot differ.
    """
    adjacency = graph.adjacency(add_self_loops=False)
    row_weight = adjacency.row_sum(rows)
    gcn_degree = row_weight + 1.0  # self loop weight of D^{-1/2}(A+I)D^{-1/2}
    return (adjacency, row_weight.astype(np.float32),
            (1.0 / np.sqrt(gcn_degree)).astype(np.float32))


def _split_rows(cols: np.ndarray, weights: np.ndarray, counts: np.ndarray
                ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-row ``(cols, weights)`` of flat row-major data.  Copies: a cached
    row must own its memory, or one surviving view would pin the whole
    extraction buffer."""
    ends = np.cumsum(counts).tolist()
    return [(cols[start:end].copy(), weights[start:end].copy())
            for start, end in zip([0] + ends[:-1], ends)]


class NeighborSampler:
    """Seeded k-hop neighbor sampler emitting :class:`BlockBatch` es.

    Parameters
    ----------
    graph:
        The full graph to sample from.
    fanouts:
        Per-layer neighbour caps, innermost layer first (one entry per GNN
        layer); an ``int`` broadcasts over ``num_layers``, ``None`` /
        non-positive means keep every neighbour.
    batch_size:
        Seeds per minibatch.
    num_layers:
        Layer count used to broadcast a scalar ``fanouts`` (ignored when a
        sequence is given).
    seed_nodes:
        Boolean mask or integer ids of the seeds to iterate (defaults to
        ``graph.train_mask``, else all nodes).
    shuffle:
        Reshuffle the seed order every epoch (deterministic given ``seed``).
    seed:
        Seed of the shuffle generator and of the counter-based edge-sampling
        hash.  Edge sampling consumes no sequential rng state: a node's
        sampled neighbourhood depends only on ``(seed, rng-epoch, hop,
        node)``, never on iteration order.
    cache:
        Optional :class:`~repro.cache.BlockCache` consulted before touching
        the adjacency.  The cache must be private to one sampler
        configuration (its keys carry no graph/seed identity).  Cached and
        uncached sampling are bit-identical.  Keys carry the graph's
        versions (:attr:`~repro.graphs.graph.Graph.row_version` for row
        entries, :attr:`~repro.graphs.graph.Graph.version` for block
        stacks), so an update strands exactly the entries it made stale.
    """

    def __init__(self, graph: Graph, fanouts: Union[Fanout, Sequence[Fanout]],
                 batch_size: int = 512, num_layers: Optional[int] = None,
                 seed_nodes: Optional[np.ndarray] = None,
                 shuffle: bool = True, seed: int = 0,
                 cache: Optional["BlockCache"] = None,
                 cache_batches: bool = True):
        self.graph = graph
        self.fanouts = _normalize_fanouts(fanouts, num_layers)
        self.batch_size = int(batch_size)
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.shuffle = shuffle
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        #: Counter mixed into every edge-sampling key; advanced once per
        #: ``__iter__`` epoch so training resamples, left alone by the
        #: explicit :meth:`sample` / :meth:`iter_batches` serving path.
        self.rng_epoch = 0
        self.cache = cache
        #: Store whole block stacks (worth it for serving, where identical
        #: requests repeat; training batches never repeat within an epoch).
        self.cache_batches = cache_batches

        if seed_nodes is None:
            seed_nodes = graph.train_mask if graph.train_mask is not None \
                else np.arange(graph.num_nodes, dtype=np.int64)
        seed_nodes = np.asarray(seed_nodes)
        if seed_nodes.dtype == bool:
            seed_nodes = np.flatnonzero(seed_nodes)
        self.seed_nodes = seed_nodes.astype(np.int64)

        self.refresh_graph()
        # Reusable global->local renumbering table (reset after every hop),
        # thread-local so concurrent serving workers never share scratch.
        self._scratch = threading.local()

    # ------------------------------------------------------------------ #
    def _lookup_table(self) -> np.ndarray:
        table = getattr(self._scratch, "lookup", None)
        if table is None or table.shape[0] != self.graph.num_nodes:
            table = np.full(self.graph.num_nodes, -1, dtype=np.int64)
            self._scratch.lookup = table
        return table

    def _fetch_rows(self, targets: np.ndarray, fanout: Fanout, hop: int
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Uncached rows of ``targets``: flat ``(cols, weights, counts)`` and
        ``full``, per row whether it is the node's whole adjacency row or
        arrived already capped for ``(fanout, hop, rng-epoch)``.

        Where a row comes from is the one decision the sharded tier
        overrides (an owner caps the rows it ships); here every row is full.
        """
        csr = self._adjacency.csr
        starts = np.take(csr.indptr, targets).astype(np.int64)
        counts = np.take(csr.indptr, targets + 1) - starts
        # Entry k of the output reads entry k - offset + start of its row.
        gather = np.repeat(starts - (np.cumsum(counts) - counts), counts) \
            + np.arange(int(counts.sum()), dtype=np.int64)
        return (np.take(csr.indices, gather).astype(np.int64),
                np.take(csr.data, gather), counts,
                np.ones(targets.shape[0], dtype=bool))

    def _cap_rows(self, node_ids: np.ndarray, cols: np.ndarray,
                  weights: np.ndarray, counts: np.ndarray, fanout: Fanout,
                  salt: np.uint64
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply the fanout cap to flat row-major CSR data, row-wise.

        Random-key top-k per row: sort (row, hashed key) and keep the first
        ``fanout`` entries of every row — a uniform sample without
        replacement, all rows at once.  Keys hash ``(salt, node, position)``
        so each row's kept set is independent of the other rows, and the
        kept edges are re-sorted into their original row positions so the
        output is byte-identical however rows are grouped into calls.
        """
        if fanout is None or counts.size == 0 or int(counts.max(initial=0)) <= fanout:
            return cols, weights, counts
        rows_local = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        position = np.arange(cols.shape[0], dtype=np.int64) \
            - np.repeat(starts, counts)
        keys = _edge_keys(node_ids[rows_local], position, salt)
        order = np.lexsort((keys, rows_local))
        selected = np.sort(order[position < fanout])
        return cols[selected], weights[selected], np.minimum(counts, fanout)

    def _cached_rows(self, targets: np.ndarray, fanout: Fanout, hop: int,
                     salt: np.uint64
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_cap_rows(_fetch_rows(...))`` routed through the cache.

        Probe, fetch the misses, cap what still exceeds the fanout, store:
        a fetched full row as a raw row (valid for every fanout, hop and
        epoch), a row that arrived capped — like one capped here — under
        its ``(node, fanout, hop, epoch, version)`` key.
        """
        from repro.cache import ROW_FINAL, ROW_RAW

        cache, epoch = self.cache, self.rng_epoch
        versions = self.graph.row_version[targets]
        entries = cache.get_rows(targets, fanout, hop, epoch,
                                 versions=versions)

        missing = np.flatnonzero([entry is None for entry in entries])
        if missing.size:
            cols, weights, counts, full = self._fetch_rows(
                targets[missing], fanout, hop)
            for index, row, is_full in zip(
                    missing.tolist(), _split_rows(cols, weights, counts),
                    full.tolist()):
                over = is_full and fanout is not None \
                    and row[0].shape[0] > fanout
                entries[index] = (ROW_RAW if over else ROW_FINAL, *row)
            whole, capped = missing[full], missing[~full]
            cache.put_raw_rows(targets[whole],
                               [entries[i][1:] for i in whole.tolist()],
                               versions=versions[whole])
            if capped.size:
                cache.put_capped_rows(
                    targets[capped], fanout, hop, epoch,
                    [entries[i][1:] for i in capped.tolist()],
                    versions=versions[capped])

        # Cap every still-raw row in one vectorized pass (cache hits that
        # were stored as full rows plus freshly fetched over-fanout rows).
        raw = [i for i, entry in enumerate(entries) if entry[0] == ROW_RAW]
        if raw:
            counts = np.asarray([entries[i][1].shape[0] for i in raw],
                                dtype=np.int64)
            cols = np.concatenate([entries[i][1] for i in raw])
            weights = np.concatenate([entries[i][2] for i in raw])
            rows = _split_rows(*self._cap_rows(
                targets[raw], cols, weights, counts, fanout, salt))
            cache.put_capped_rows(targets[raw], fanout, hop, epoch, rows,
                                  versions=versions[raw])
            for index, row in zip(raw, rows):
                entries[index] = (ROW_FINAL, *row)

        counts = np.asarray([entry[1].shape[0] for entry in entries],
                            dtype=np.int64)
        cols = np.concatenate([entry[1] for entry in entries])
        weights = np.concatenate([entry[2] for entry in entries])
        return cols, weights, counts

    def _final_rows(self, targets: np.ndarray, fanout: Fanout, hop: int,
                    salt: np.uint64
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Final (fanout-capped) rows of ``targets``: flat (cols, weights,
        counts).

        A pure function of ``(graph, sampler seed, rng-epoch, hop, node,
        fanout)`` per row — independent of how targets are grouped into
        calls, and of whether a row was capped here or by the shard that
        owns it (capping an already capped row is the identity).
        """
        if self.cache is not None and targets.shape[0] > 0:
            return self._cached_rows(targets, fanout, hop, salt)
        cols, weights, counts, _ = self._fetch_rows(targets, fanout, hop)
        return self._cap_rows(targets, cols, weights, counts, fanout, salt)

    def _sample_hop(self, targets: np.ndarray, fanout: Fanout,
                    hop: int) -> SubgraphBlock:
        """Sample one bipartite block for ``targets`` (vectorized CSR ops)."""
        salt = _salt(self.seed, self.rng_epoch, hop)
        cols, weights, counts = self._final_rows(targets, fanout, hop, salt)
        rows_local = np.repeat(np.arange(targets.shape[0], dtype=np.int64),
                               counts)

        sampled_weight = np.zeros(targets.shape[0], dtype=np.float32)
        np.add.at(sampled_weight, rows_local, weights)
        full_weight = self._row_weight[targets]
        row_scale = np.ones(targets.shape[0], dtype=np.float32)
        positive = sampled_weight > 0
        row_scale[positive] = full_weight[positive] / sampled_weight[positive]

        # Renumber: targets occupy the local prefix, new neighbours follow.
        lookup = self._lookup_table()
        lookup[targets] = np.arange(targets.shape[0], dtype=np.int64)
        fresh = np.unique(cols[lookup[cols] < 0])
        lookup[fresh] = targets.shape[0] + np.arange(fresh.shape[0], dtype=np.int64)
        src_nodes = np.concatenate([targets, fresh])
        edge_cols = lookup[cols]
        lookup[src_nodes] = -1

        return SubgraphBlock(
            dst_nodes=targets, src_nodes=src_nodes,
            edge_rows=rows_local, edge_cols=edge_cols,
            edge_weight=weights.astype(np.float32),
            dst_inv_sqrt=self._inv_sqrt[targets],
            src_inv_sqrt=self._inv_sqrt[src_nodes],
            row_scale=row_scale)

    def sample(self, seeds: np.ndarray) -> BlockBatch:
        """Build the block stack for one batch of seed nodes.

        A pure function of ``(seeds, sampler seed, rng-epoch)``: calling it
        twice — or in any interleaving with other batches — returns
        identical samples.  With a cache attached, a byte-identical repeat
        call at the same graph version reuses the previously sampled
        (immutable) block stack; features and labels are always gathered
        from the graph, which holds exactly the bytes of that version
        because every delta — a feature write included — advances the
        version the stack is keyed by.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        batching = self.cache is not None and self.cache_batches
        blocks: Optional[List[SubgraphBlock]] = None
        if batching:
            blocks = self.cache.get_batch(seeds, self.fanouts, self.rng_epoch,
                                          version=self.graph.version)
        if blocks is None:
            blocks = []
            targets = seeds
            for hop, fanout in enumerate(reversed(self.fanouts)):
                block = self._sample_hop(targets, fanout, hop)
                blocks.append(block)
                targets = block.src_nodes
            blocks.reverse()
            if batching:
                self.cache.put_batch(seeds, self.fanouts, self.rng_epoch,
                                     blocks, version=self.graph.version)
        x = self.graph.x[blocks[0].src_nodes]
        y = None if self.graph.y is None else self.graph.y[seeds]
        return BlockBatch(blocks, x, y, seeds)

    def iter_batches(self, seeds: np.ndarray) -> Iterator[BlockBatch]:
        """Yield :class:`BlockBatch` es for an explicit seed list, in order.

        Unlike iteration over the sampler (which walks its configured
        ``seed_nodes``, shuffled per epoch), this serves an arbitrary
        request: the seeds are chunked into ``batch_size`` micro-batches
        without reordering, so concatenating the per-batch outputs lines up
        with the request.  Sampling shares the counter-based key stream of
        :meth:`sample`, so the produced blocks do not depend on how many
        batches (or epochs) were drawn before — seeded runs are reproducible
        regardless of iteration order.  Used by the serving engine's block
        backend.
        """
        seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
        for start in range(0, seeds.shape[0], self.batch_size):
            yield self.sample(seeds[start:start + self.batch_size])

    # ------------------------------------------------------------------ #
    def refresh_graph(self) -> None:
        """Derive the whole adjacency state from the bound graph.

        Run at construction; after a mutation that changed only known
        rows, :meth:`refresh_rows` re-derives just those.  Both read
        :func:`degree_state`, so a sampler over a streamed graph is
        bit-identical to a fresh sampler built on the equivalent static
        graph.
        """
        self._adjacency, self._row_weight, self._inv_sqrt = \
            degree_state(self.graph)

    def refresh_rows(self, rows: np.ndarray) -> None:
        """Re-derive the degree state of ``rows`` after the graph changed
        those adjacency rows and no others.

        Rebinds the (already respliced) adjacency and writes the rows'
        ``row_weight`` / ``inv_sqrt`` in place: O(changed rows), bitwise
        what :meth:`refresh_graph` would derive.  Called by
        :meth:`~repro.serving.session.BlockSession.apply_update` right
        after :meth:`~repro.graphs.graph.Graph.apply_delta` with the
        delta's ``changed_rows()``.
        """
        self._adjacency, row_weight, inv_sqrt = degree_state(self.graph, rows)
        self._row_weight[rows] = row_weight
        self._inv_sqrt[rows] = inv_sqrt

    def advance_epoch(self) -> int:
        """Move to the next rng-epoch and invalidate stale cached samples.

        Called automatically at the start of every ``__iter__`` epoch.
        Cached *raw* rows survive (a node's whole adjacency row carries no
        randomness); cached sampled rows and batches of other epochs are
        explicitly evicted.
        """
        self.rng_epoch += 1
        if self.cache is not None:
            self.cache.invalidate_epochs(self.rng_epoch)
        return self.rng_epoch

    def __iter__(self) -> Iterator[BlockBatch]:
        self.advance_epoch()
        order = self.seed_nodes
        if self.shuffle:
            order = self._rng.permutation(order)
        for start in range(0, order.shape[0], self.batch_size):
            yield self.sample(order[start:start + self.batch_size])

    def __len__(self) -> int:
        return -(-self.seed_nodes.shape[0] // self.batch_size)
