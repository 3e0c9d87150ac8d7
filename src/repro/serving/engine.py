"""Request-level serving on top of an :class:`InferenceSession`.

:class:`ServingEngine` is the front door of the serving subsystem: callers
``submit()`` seed-node requests, the engine coalesces everything pending
into micro-batches of at most ``max_batch_size`` seeds, runs them through
the session, and hands back one :class:`RequestResult` per request with its
logits, latency and attributed BitOPs.  Coalescing is what makes many small
requests cheap: two one-node requests share a sampled receptive field and a
single integer forward instead of paying for two — and with the default
``dedup_seeds`` a seed requested by several callers in the same flush is
sampled and executed exactly once, its logits scattered back per request.

With ``workers > 1`` a flush executes its micro-batches on a thread pool:
sessions are stateless per request (their memoisation is locked, the
sampler's scratch is thread-local, the block cache is thread-safe), so
micro-batches are independent and the pool hides the per-batch sampling and
quantization latency.  Results are written into per-chunk slices of one
output buffer, so worker scheduling can never change any request's logits.

BitOPs are attributed to requests proportionally to their seed share of
each micro-batch; latency is the time from ``flush()`` start until the last
micro-batch containing one of the request's seeds completed.

Failures are isolated per micro-batch: when ``session.run`` raises, only
the requests with a seed in that micro-batch carry the error (as
:attr:`RequestResult.error`) — sibling requests in the same flush still
complete, and :class:`EngineStats` counts the whole flush consistently
(every request and micro-batch counted, ``failures`` incremented, BitOPs
attributed for the work that actually ran).

For an *online* front — callers submitting from many threads, flushes
triggered by a latency deadline instead of an explicit call — wrap the
session in :class:`~repro.serving.async_engine.AsyncServingEngine`.
"""

from __future__ import annotations

import copy
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.serving.session import InferenceSession

if TYPE_CHECKING:  # pragma: no cover - circular only for annotations
    from repro.streaming.delta import GraphDelta


def per_request_error(error: BaseException) -> BaseException:
    """A per-request copy of a shared failure.

    One failed micro-batch (or one failed flush) affects several requests,
    but handing every one of them the *same* exception instance is a trap:
    the first consumer to re-raise it starts growing a traceback and
    ``__context__`` chain on an object other consumers still hold.  Each
    request gets its own shallow copy — same type, same ``args``, so
    ``isinstance``/message checks behave identically — chained to the
    original via ``__cause__``.  Exceptions that refuse copying fall back
    to the shared instance rather than masking the real failure.
    """
    try:
        clone = copy.copy(error)
    except Exception:
        return error
    if clone is error or type(clone) is not type(error):
        return error
    clone.__cause__ = error
    return clone


@dataclass
class RequestResult:
    """Outcome of one serving request.

    A failed request (a micro-batch holding one of its seeds raised)
    carries the exception in :attr:`error` and empty ``logits``; check
    :attr:`ok` before consuming outputs.  ``giga_bit_operations`` still
    reports the work its *successful* micro-batches spent.
    """

    request_id: int
    nodes: np.ndarray
    logits: np.ndarray
    latency_seconds: float
    giga_bit_operations: float
    #: The exception that failed one of this request's micro-batches
    #: (None = served completely).
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def classes(self) -> np.ndarray:
        return self.logits.argmax(axis=1)

    def __repr__(self) -> str:
        status = "" if self.error is None \
            else f", error={type(self.error).__name__}"
        return (f"RequestResult(id={self.request_id}, nodes={self.nodes.shape[0]}, "
                f"latency={self.latency_seconds * 1e3:.2f}ms, "
                f"GBitOPs={self.giga_bit_operations:.4f}{status})")


@dataclass
class EngineStats:
    """Cumulative counters over an engine's lifetime.

    ``requests`` / ``nodes`` / ``micro_batches`` count everything the
    engine *attempted* (failed micro-batches included — they consumed
    queue and wall-clock); ``failures`` counts the requests that carried
    an error out of a flush, so ``requests - failures`` is the number
    served completely.  ``updates`` counts applied graph deltas.
    """

    requests: int = 0
    nodes: int = 0
    micro_batches: int = 0
    failures: int = 0
    updates: int = 0
    seconds: float = 0.0
    giga_bit_operations: float = 0.0

    def throughput(self) -> float:
        """Seed nodes served per second (0 before anything ran)."""
        return self.nodes / self.seconds if self.seconds > 0 else 0.0


@dataclass
class _PendingRequest:
    request_id: int
    nodes: np.ndarray


def validate_request_nodes(session: InferenceSession,
                           nodes: Sequence[int]) -> np.ndarray:
    """Normalise and bounds-check one request's seed nodes.

    Shared by the synchronous and asynchronous fronts so a malformed
    request is rejected at submission — with identical semantics — instead
    of failing a whole coalesced flush.
    """
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    if nodes.size == 0:
        raise ValueError("a request needs at least one seed node")
    num_nodes = session.graph.num_nodes
    if nodes.min() < 0 or nodes.max() >= num_nodes:
        raise ValueError(f"seed node ids must lie in [0, {num_nodes}); "
                         f"got range [{nodes.min()}, {nodes.max()}]")
    return nodes


@dataclass
class ServingEngine:
    """Coalescing micro-batch server over an inference session.

    ``workers`` bounds the thread pool one flush may fan its micro-batches
    over; 1 (the default) keeps the classic synchronous behaviour.
    """

    session: InferenceSession
    max_batch_size: int = 256
    workers: int = 1
    #: Sample each distinct seed once per flush and scatter its logits back
    #: to every request that asked for it.  Keeps first-occurrence order, so
    #: non-overlapping traffic executes exactly as without dedup; sampling
    #: purity (a row is a function of the seed, never of its neighbours in
    #: the batch) keeps integer logits bitwise identical either way.
    dedup_seeds: bool = True
    _queue: List[_PendingRequest] = field(default_factory=list)
    _next_id: int = 0
    stats: EngineStats = field(default_factory=EngineStats)
    _pool: Optional[ThreadPoolExecutor] = field(default=None, repr=False)

    def __post_init__(self):
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.workers <= 0:
            raise ValueError("workers must be positive")

    def _worker_pool(self) -> ThreadPoolExecutor:
        """The engine's persistent pool (lazily created, reused per flush).

        Keeping the threads alive keeps their thread-local sampler scratch
        (one O(num_nodes) renumbering table per thread) alive with them —
        tearing the pool down per flush would reallocate it every time.
        """
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-serving-worker")
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; pool is recreated on use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Number of requests waiting for the next :meth:`flush`."""
        return len(self._queue)

    def reset_stats(self) -> EngineStats:
        """Start a fresh measurement window; returns the closed window's
        counters.

        Counters only move inside :meth:`flush`, so calling this between
        flushes (e.g. after a load harness's warm-up phase has drained)
        cleanly separates windows; pending unflushed requests are
        unaffected and will be counted in the new window.
        """
        snapshot = replace(self.stats)
        self.stats = EngineStats()
        return snapshot

    def submit(self, nodes: Sequence[int]) -> int:
        """Queue a request for the given seed nodes; returns its request id.

        Node ids are validated here so one malformed request is rejected at
        submission instead of failing a whole coalesced flush.
        """
        nodes = validate_request_nodes(self.session, nodes)
        request_id = self._next_id
        self._next_id += 1
        self._queue.append(_PendingRequest(request_id, nodes))
        return request_id

    def apply_update(self, delta: "GraphDelta") -> int:
        """Apply a delta right now (between flushes); returns new version.

        Every request of one flush is served at one graph version: the
        next :meth:`flush` sees the update, whatever was queued before it.
        Callers must guarantee no flush is executing — the synchronous
        engine is single-threaded at the request front, the async engine
        calls this from its dispatcher only.  Raises :class:`TypeError`
        when the bound session cannot apply updates.
        """
        if not self.session.supports_updates:
            raise TypeError(f"{type(self.session).__name__} does not support "
                            f"streaming updates")
        version = self.session.apply_update(delta)
        self.stats.updates += 1
        return version

    def flush(self) -> List[RequestResult]:
        """Serve every pending request in coalesced micro-batches."""
        if not self._queue:
            return []
        requests, self._queue = self._queue, []
        seeds = np.concatenate([request.nodes for request in requests])
        owners = np.concatenate([np.full(request.nodes.shape[0], position,
                                         dtype=np.int64)
                                 for position, request in enumerate(requests)])
        if self.dedup_seeds:
            # Execute each distinct seed once, in first-occurrence order
            # (np.unique sorts, which would reorder micro-batches even for
            # disjoint traffic); ``inverse`` maps every requested occurrence
            # to its row in the executed batch.
            unique_seeds, first_at, inverse = np.unique(
                seeds, return_index=True, return_inverse=True)
            order = np.argsort(first_at)
            rank = np.empty_like(order)
            rank[order] = np.arange(order.shape[0])
            work_seeds = unique_seeds[order]
            inverse = rank[inverse]
        else:
            work_seeds = seeds
            inverse = np.arange(seeds.shape[0])

        start = time.perf_counter()
        logits_buffer: Optional[np.ndarray] = None
        attributed_ops = np.zeros(len(requests))
        done_at = np.zeros(len(requests))
        # A full-graph session computes every node per run anyway — serve
        # the whole flush with one run instead of re-running per chunk.
        batch_size = work_seeds.shape[0] if self.session.request_invariant_cost \
            else self.max_batch_size
        chunks = [slice(begin, begin + batch_size)
                  for begin in range(0, work_seeds.shape[0], batch_size)]

        errors: List[Optional[BaseException]] = [None] * len(requests)

        def chunk_occurrences(chunk: slice) -> np.ndarray:
            """Request-space positions whose seed executed in ``chunk``."""
            return (inverse >= chunk.start) & (inverse < chunk.stop)

        def account(chunk: slice, run) -> None:
            # Single-threaded by construction (sequential loop or the
            # as_completed consumer below), so no locking is needed here.
            nonlocal logits_buffer, attributed_ops
            if logits_buffer is None:
                logits_buffer = np.empty(
                    (work_seeds.shape[0], run.logits.shape[1]),
                    dtype=run.logits.dtype)
            logits_buffer[chunk] = run.logits
            # A deduplicated chunk's work is attributed across every request
            # that asked for one of its seeds, by occurrence share — the
            # requests that made the work necessary split its cost.
            chunk_owners = owners[chunk_occurrences(chunk)]
            counts = np.bincount(chunk_owners, minlength=len(requests))
            attributed_ops += run.giga_bit_operations() \
                * counts / chunk_owners.shape[0]
            done_at[np.unique(chunk_owners)] = time.perf_counter() - start

        def fail(chunk: slice, error: BaseException) -> None:
            # Only the requests with a seed in the failed micro-batch carry
            # the error; their logits are incomplete either way, so the
            # whole request is marked failed even if its other chunks ran.
            # Each affected request gets its own exception copy — consumers
            # re-raise these independently (see ``per_request_error``).
            affected = np.unique(owners[chunk_occurrences(chunk)])
            for position in affected:
                if errors[position] is None:
                    errors[position] = per_request_error(error)
            done_at[affected] = time.perf_counter() - start

        micro_batches = len(chunks)
        if self.workers > 1 and len(chunks) > 1:
            pool = self._worker_pool()
            futures = {pool.submit(self.session.run, work_seeds[chunk]): chunk
                       for chunk in chunks}
            for future in as_completed(futures):
                chunk = futures[future]
                try:
                    run = future.result()
                except Exception as error:
                    fail(chunk, error)
                else:
                    account(chunk, run)
        else:
            for chunk in chunks:
                try:
                    run = self.session.run(work_seeds[chunk])
                except Exception as error:
                    fail(chunk, error)
                else:
                    account(chunk, run)
        elapsed = time.perf_counter() - start

        width = 0 if logits_buffer is None else logits_buffer.shape[1]
        results = []
        failures = 0
        for position, request in enumerate(requests):
            error = errors[position]
            if error is None:
                # Every chunk holding this request's seeds succeeded, so
                # the buffer exists and its rows are fully written; the
                # inverse map scatters deduplicated rows back to every
                # occurrence, duplicates within the request included.
                logits = logits_buffer[inverse[owners == position]]
            else:
                failures += 1
                logits = np.empty((0, width))
            results.append(RequestResult(
                request_id=request.request_id, nodes=request.nodes,
                logits=logits,
                latency_seconds=float(done_at[position]),
                giga_bit_operations=float(attributed_ops[position]),
                error=error))

        self.stats.requests += len(requests)
        self.stats.nodes += int(seeds.shape[0])
        self.stats.micro_batches += micro_batches
        self.stats.failures += failures
        self.stats.seconds += elapsed
        self.stats.giga_bit_operations += float(attributed_ops.sum())
        return results

    # ------------------------------------------------------------------ #
    def predict(self, nodes: Sequence[int]) -> np.ndarray:
        """One-shot convenience: serve a single request immediately.

        Requests already queued by :meth:`submit` are left pending for the
        next :meth:`flush`.
        """
        backlog, self._queue = self._queue, []
        try:
            self.submit(nodes)
            result = self.flush()[0]
            if result.error is not None:
                raise result.error
            return result.logits
        finally:
            self._queue = backlog + self._queue
