"""The per-shard worker process of the sharded serving tier.

One worker owns one shard of the graph: the adjacency **rows** of its
nodes.  It runs a :class:`~repro.serving.BlockSession` over a *restricted*
graph view — every non-owned adjacency row is genuinely absent, not just
unused — so any receptive field that crosses the shard boundary must go
through the halo protocol, and the tests that assert bitwise parity are
really exercising it.

Execution model (single thread, message-driven)::

    router ── cmd_q ──▶ worker ── out_q ──▶ router

BLAS runs on that thread too (:mod:`repro.sharding._blas`).

* ``predict`` — run one seed chunk through the worker's block session.
  Chunks arrive exactly as the single-process :class:`BlockSession` would
  have formed them (request order, ``batch_size`` micro-batches), which is
  what makes sharded logits bit-identical: identical batch composition,
  identical sampling keys, identical float accumulation order.
* ``rows_query`` — serve the final (fanout-capped) adjacency rows of owned
  nodes to another shard.  Row content is a pure function of ``(sampler
  seed, rng-epoch, hop, node, fanout)`` through the counter-based SplitMix64
  keys, so the owner computes exactly the row the requester's
  single-process reference would have computed — and reuses its per-shard
  :class:`~repro.cache.BlockCache` while doing so.
* ``halo_reply`` — the answer to this worker's own outstanding halo
  request.  While waiting for one, the worker keeps draining its command
  queue: incoming ``rows_query`` messages are served inline (they only
  touch owned rows, so they can never recurse into another halo fetch) and
  anything else is deferred to a backlog.  Two workers that need each
  other's rows therefore make progress instead of deadlocking.
* ``ready`` / ``init_error`` — sent once, after the session is built (or
  failed to build); the router's constructor waits for it, so a
  misconfigured fleet fails at construction instead of being respawned.
* ``fault`` — test hook: arm the next predict to die (``os._exit``) or
  hang, reproducing worker crashes and deadline overruns deterministically.

All cross-shard traffic is mediated by the router (workers never hold each
other's queues), which is what makes restarting a crashed worker safe: the
router swaps in fresh queues and no peer ever observes the stale ones.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.sampling import Fanout, NeighborSampler, _salt
from repro.serving.artifact import QuantizedArtifact
from repro.serving.session import BlockSession
from repro.sharding._blas import pin_blas_to_one_thread

#: Flat row payload shipped between shards: (cols, weights, counts) of the
#: requested nodes, in request order.
RowPayload = Tuple[np.ndarray, np.ndarray, np.ndarray]


class ShardHaloError(RuntimeError):
    """A cross-shard halo fetch failed (owner crashed or errored)."""


def restricted_graph(graph: Graph, assignment: np.ndarray,
                     shard: int) -> Graph:
    """The shard's view: full features, only the owned adjacency rows.

    Features stay shared (fork gives copy-on-write pages; source features
    of halo rows are gathered from here), but edges whose *row* endpoint is
    not owned are dropped, so sampling a non-owned row locally yields an
    empty row — correctness of cross-shard receptive fields depends on the
    halo protocol, by construction.
    """
    owned = assignment[graph.edge_index[0]] == shard
    return Graph(graph.x, graph.edge_index[:, owned], y=graph.y,
                 edge_weight=graph.edge_weight[owned],
                 name=f"{graph.name}/shard{shard}")


#: ``halo_fetch(plan, fanout, hop, epoch)`` with ``plan`` mapping owner
#: shard -> requested node ids; returns owner shard -> RowPayload.
HaloFetch = Callable[[Dict[int, np.ndarray], Fanout, int, int],
                     Dict[int, RowPayload]]


class ShardSampler(NeighborSampler):
    """A :class:`NeighborSampler` that knows where a row comes from.

    Owned rows are read from the restricted adjacency; the rest are grouped
    by owning shard and fetched through ``halo_fetch``.  That is the whole
    override: probing, capping and storing are the inherited single-process
    pipeline, which caches a halo row under the very key the owner uses —
    every row, local or remote, is the same pure function of ``(seed,
    epoch, hop, node, fanout)``.
    """

    def __init__(self, graph: Graph, assignment: np.ndarray, shard: int,
                 halo_fetch: HaloFetch, row_weight: np.ndarray,
                 inv_sqrt: np.ndarray, **kwargs):
        super().__init__(graph, **kwargs)
        self.assignment = assignment
        self.shard = int(shard)
        self.halo_fetch = halo_fetch
        # The restricted adjacency yields wrong (partial) degrees; serve
        # with the full graph's vectors so row_scale / GCN normalisation
        # match the single-process sampler exactly.
        self._row_weight = row_weight
        self._inv_sqrt = inv_sqrt

    def _fetch_rows(self, targets: np.ndarray, fanout: Fanout, hop: int
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        owners = self.assignment[targets]
        local = owners == self.shard
        if local.all():
            return super()._fetch_rows(targets, fanout, hop)
        # Owned rows, then each owner's reply: a permutation of the targets.
        groups = [np.flatnonzero(local)]
        pieces = [super()._fetch_rows(targets[groups[0]], fanout, hop)[:3]]
        plan: Dict[int, np.ndarray] = {}
        for owner in np.unique(owners[~local]):
            groups.append(np.flatnonzero(owners == owner))
            plan[int(owner)] = targets[groups[-1]]
        replies = self.halo_fetch(plan, fanout, hop, self.rng_epoch)
        pieces.extend(replies[owner] for owner in plan)
        cols, weights, counts = (np.concatenate(part) for part in zip(*pieces))

        # Back into target order: gather each target's row out of the
        # grouped flat data.
        position = np.empty(targets.shape[0], dtype=np.int64)
        position[np.concatenate(groups)] = np.arange(targets.shape[0])
        starts = (np.cumsum(counts) - counts)[position]
        counts = counts[position]
        gather = np.repeat(starts - (np.cumsum(counts) - counts), counts) \
            + np.arange(int(counts.sum()), dtype=np.int64)
        # An owner's reply shorter than the fanout is provably its full row;
        # one at the fanout may have been capped.
        full = np.ones(targets.shape[0], dtype=bool) if fanout is None \
            else local | (counts < fanout)
        return cols[gather], weights[gather], counts, full


def serve_rows(sampler: NeighborSampler, nodes: np.ndarray, fanout: Fanout,
               hop: int, epoch: int) -> RowPayload:
    """Owner-side half of the halo protocol: final rows of owned nodes.

    Computes through the owner's cache pipeline when the requester is in
    the owner's current rng-epoch (serving never advances epochs, so this
    is the steady state); an epoch mismatch falls back to the pure
    cache-free path with the requester's salt.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    salt = _salt(sampler.seed, epoch, hop)
    if epoch == sampler.rng_epoch:
        return sampler._final_rows(nodes, fanout, hop, salt)
    cols, weights, counts, _ = sampler._fetch_rows(nodes, fanout, hop)
    return sampler._cap_rows(nodes, cols, weights, counts, fanout, salt)


@dataclass
class WorkerConfig:
    """Everything a worker process needs to build its shard session.

    Plain data (arrays, strings, the artifact) so the worker entry point
    works under both ``fork`` (the fast path — large members are inherited
    copy-on-write) and ``spawn`` start methods.
    """

    shard: int
    assignment: np.ndarray
    artifact: QuantizedArtifact
    graph: Graph
    fanouts: Union[Fanout, Sequence[Fanout]]
    batch_size: int
    seed: int
    cache_size: int
    cache_bytes: Optional[int]
    #: Full-graph degree vectors (:func:`~repro.graphs.sampling.degree_state`),
    #: computed once in the router process.
    row_weight: np.ndarray
    inv_sqrt: np.ndarray


class ShardWorkerSession(BlockSession):
    """A block session over the shard's restricted view whose sampler is a
    :class:`ShardSampler` resolving halo rows through ``halo_fetch``."""

    def __init__(self, config: WorkerConfig, halo_fetch: HaloFetch):
        self._config = config
        self._halo_fetch = halo_fetch
        super().__init__(
            config.artifact,
            restricted_graph(config.graph, config.assignment, config.shard),
            fanouts=config.fanouts, batch_size=config.batch_size,
            seed=config.seed, cache_size=config.cache_size,
            cache_bytes=config.cache_bytes)

    def _make_sampler(self, graph: Graph, **kwargs) -> ShardSampler:
        config = self._config
        # A chunk is the router's coalesced seed list, which practically
        # never repeats byte for byte: a whole-batch entry would never be
        # hit, so the worker caches rows only.
        return ShardSampler(graph, config.assignment, config.shard,
                            self._halo_fetch, config.row_weight,
                            config.inv_sqrt, cache_batches=False, **kwargs)


def _rows_reply(session: ShardWorkerSession, message: tuple) -> tuple:
    _, query_id, nodes, fanout, hop, epoch = message
    try:
        payload = serve_rows(session.sampler, nodes, fanout, hop, epoch)
    except Exception as error:  # noqa: BLE001 - shipped to the requester
        return ("rows_reply", query_id, False, repr(error))
    return ("rows_reply", query_id, True, payload)


def worker_main(config: WorkerConfig, cmd_q, out_q) -> None:
    """Worker process entry point: one message loop until ``stop``.

    The loop is single-threaded; concurrency lives in the protocol.  While
    blocked on its own halo reply the worker keeps serving ``rows_query``
    messages (they only touch owned rows) and defers everything else to a
    backlog, so mutually dependent shards always make progress.
    """
    backlog: deque = deque()
    fault = {"die_next": False, "hang_next": 0.0}
    tokens = itertools.count()

    def apply_fault(message: tuple) -> None:
        kind = message[1]
        if kind == "die_next":
            fault["die_next"] = True
        elif kind == "hang_next":
            fault["hang_next"] = float(message[2])

    def halo_fetch(plan: Dict[int, np.ndarray], fanout: Fanout, hop: int,
                   epoch: int) -> Dict[int, RowPayload]:
        pending: Dict[tuple, int] = {}
        for owner, nodes in sorted(plan.items()):
            token = (config.shard, next(tokens))
            out_q.put(("halo_request", token, config.shard, owner, nodes,
                       fanout, hop, epoch))
            pending[token] = owner
        replies: Dict[int, RowPayload] = {}
        while pending:
            message = cmd_q.get()
            kind = message[0]
            if kind == "halo_reply" and message[1] in pending:
                _, token, ok, payload = message
                owner = pending.pop(token)
                if not ok:
                    raise ShardHaloError(
                        f"halo fetch from shard {owner} failed: {payload}")
                replies[owner] = payload
            elif kind == "rows_query":
                out_q.put(_rows_reply(session, message))
            elif kind == "fault":
                apply_fault(message)
            else:
                # New predicts (and stray stop/stats) wait their turn.
                backlog.append(message)
        return replies

    try:
        # halo_fetch reads ``session`` when called, i.e. once it is bound.
        session = ShardWorkerSession(config, halo_fetch)
    except Exception as error:  # noqa: BLE001 - shipped to the router
        out_q.put(("init_error", repr(error)))
        return
    # After the build, not at fork: pinning restarts OpenBLAS's thread
    # pool, whose helper would spin through the whole session build.
    pin_blas_to_one_thread()
    out_q.put(("ready",))

    while True:
        message = backlog.popleft() if backlog else cmd_q.get()
        kind = message[0]
        if kind == "stop":
            return
        if kind == "fault":
            apply_fault(message)
        elif kind == "rows_query":
            out_q.put(_rows_reply(session, message))
        elif kind == "stats":
            out_q.put(("stats_reply", message[1], session.cache_stats()))
        elif kind == "predict":
            _, chunk_id, seeds = message
            if fault["die_next"]:
                os._exit(17)  # crash mid-flight, no cleanup — the test hook
            if fault["hang_next"] > 0:
                delay, fault["hang_next"] = fault["hang_next"], 0.0
                time.sleep(delay)
            try:
                run = session.run(seeds)
            except BaseException as error:  # noqa: BLE001 - shipped to router
                out_q.put(("chunk_error", chunk_id, repr(error)))
            else:
                out_q.put(("result", chunk_id, run.logits,
                           run.bit_operations, run.num_input_nodes,
                           run.num_edges))
        # unknown / stale messages (e.g. a halo_reply for a predict that
        # already failed) are dropped
