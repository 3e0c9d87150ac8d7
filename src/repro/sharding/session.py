"""Drop-in sharded replacement of :class:`~repro.serving.BlockSession`.

:class:`ShardedBlockSession` exposes the same ``run`` / ``predict`` /
``cache_stats`` surface while executing on ``shards`` worker processes
behind a :class:`~repro.sharding.router.ShardRouter`.  Bitwise parity with
the single-process session follows from chunk-level routing: ``run``
splits seeds into the very same request-order ``batch_size`` micro-batches
the single-process session would form, and each whole chunk executes on
the shard owning the plurality of its seeds, with halo rows fetched for
the rest — identical batch composition, identical sampling keys, identical
float accumulation order.

The serving engines treat it exactly like a block session (it advertises
``request_invariant_cost = False``); close it explicitly — or use it as a
context manager — to stop the worker fleet.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

import numpy as np

from repro.cache import CacheStats
from repro.graphs.graph import Graph
from repro.graphs.partition import partition_graph
from repro.graphs.sampling import Fanout, _normalize_fanouts, degree_state
from repro.quant.bitops import BitOpsCounter
from repro.serving.artifact import QuantizedArtifact
from repro.serving.session import InferenceSession, SessionRun
from repro.sharding.router import ShardRouter
from repro.sharding.worker import WorkerConfig


class ShardedBlockSession(InferenceSession):
    """Block serving over ``shards`` worker processes.

    Parameters mirror :class:`~repro.serving.BlockSession` (``fanouts``,
    ``batch_size``, ``seed``, ``cache_size``/``cache_bytes`` — per shard),
    plus:

    partition:
        Strategy of :func:`repro.graphs.partition_graph`; the assignment
        is a pure function of ``(graph, shards, strategy)``.
    request_deadline_s:
        Per-chunk wall-clock budget enforced by the router; an overrun
        kills and restarts the worker and fails only that request.

    Workers are forked where the platform can (they inherit graph and
    artifact copy-on-write).  Construction returns once every worker has
    built its session, and raises if one could not.
    """

    request_invariant_cost = False

    def __init__(self, artifact: QuantizedArtifact, graph: Graph,
                 shards: int = 2, partition: str = "hash",
                 fanouts: Union[Fanout, Sequence[Fanout]] = None,
                 batch_size: int = 1024, seed: int = 0, cache_size: int = 0,
                 cache_bytes: Optional[int] = None,
                 request_deadline_s: Optional[float] = None):
        super().__init__(artifact, graph)
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.shards = int(shards)
        self.batch_size = int(batch_size)
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        # Checked here so a bad argument raises what BlockSession raises,
        # not a ShardWorkerError quoting it from a worker.
        fanouts = _normalize_fanouts(fanouts, artifact.total_hops)
        self.assignment = partition_graph(graph, self.shards,
                                          strategy=partition)
        _, row_weight, inv_sqrt = degree_state(graph)
        configs = [
            WorkerConfig(shard=shard, assignment=self.assignment,
                         artifact=artifact, graph=graph, fanouts=fanouts,
                         batch_size=self.batch_size, seed=seed,
                         cache_size=cache_size, cache_bytes=cache_bytes,
                         row_weight=row_weight, inv_sqrt=inv_sqrt)
            for shard in range(self.shards)]
        self.router = ShardRouter(configs,
                                  request_deadline_s=request_deadline_s)

    # ------------------------------------------------------------------ #
    def run(self, nodes: Optional[Sequence[int]] = None) -> SessionRun:
        start = time.perf_counter()
        seeds = np.arange(self.graph.num_nodes, dtype=np.int64) if nodes is None \
            else np.asarray(nodes, dtype=np.int64).reshape(-1)
        if seeds.shape[0] == 0:
            return SessionRun(
                logits=np.zeros((0, self.artifact.num_classes)),
                bit_operations=BitOpsCounter(), num_seeds=0, num_input_nodes=0,
                num_edges=0, seconds=time.perf_counter() - start)
        # The single-process chunking, verbatim: request order, batch_size
        # micro-batches.  Each whole chunk runs on one shard.
        handles = [self.router.submit_chunk(seeds[at:at + self.batch_size])
                   for at in range(0, seeds.shape[0], self.batch_size)]
        counter = BitOpsCounter()
        pieces = []
        input_nodes = 0
        edges = 0
        failure: Optional[BaseException] = None
        for handle in handles:
            try:
                logits, bitops, chunk_inputs, chunk_edges = \
                    self.router.wait_chunk(handle)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                failure = failure or error
                continue
            pieces.append(logits)
            counter.extend(bitops)
            input_nodes += chunk_inputs
            edges += chunk_edges
        if failure is not None:
            raise failure
        logits = pieces[0] if len(pieces) == 1 else np.concatenate(pieces,
                                                                   axis=0)
        return SessionRun(logits=logits, bit_operations=counter,
                          num_seeds=int(seeds.shape[0]),
                          num_input_nodes=input_nodes, num_edges=edges,
                          seconds=time.perf_counter() - start)

    def cache_stats(self) -> Optional[CacheStats]:
        """Block-cache counters summed across shards (None when off)."""
        return self.router.cache_stats()

    def close(self) -> None:
        """Stop the worker fleet (idempotent)."""
        self.router.close()

    def __enter__(self) -> "ShardedBlockSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
