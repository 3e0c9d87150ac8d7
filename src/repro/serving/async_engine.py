"""Asynchronous, work-conserving serving on top of :class:`ServingEngine`.

:class:`AsyncServingEngine` turns the synchronous coalescing engine into an
online server: callers (any number of threads) ``submit()`` seed-node
requests and immediately receive a :class:`concurrent.futures.Future`; a
background dispatcher thread flushes the pending queue through the wrapped
:class:`~repro.serving.engine.ServingEngine` as soon as it holds anything.
An idle dispatcher never waits for company: a lone request is flushed at
once.  Requests that arrive while a flush runs are pending together when it
ends and share the next flush, so coalescing grows with load on its own.

Inside one flush the engine may fan micro-batches over ``workers`` threads.
Because every flush runs on the single dispatcher thread, the engine's
stats counters are mutated by exactly one thread and are therefore
race-free however many producers submit concurrently; results are identical
to the synchronous engine because micro-batch outputs are written into
per-chunk slices of one buffer (scheduling can reorder completion, never
content).

Typical use::

    with AsyncServingEngine(session, max_batch=256, workers=4) as engine:
        futures = [engine.submit(nodes) for nodes in traffic]
        results = [future.result() for future in futures]
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.engine import (
    EngineStats,
    RequestResult,
    ServingEngine,
    per_request_error,
    validate_request_nodes,
)
from repro.serving.session import InferenceSession

if TYPE_CHECKING:  # pragma: no cover - circular only for annotations
    from repro.streaming.delta import GraphDelta


class AsyncServingEngine:
    """Thread-safe, work-conserving front over a coalescing engine.

    Parameters
    ----------
    session:
        The inference backend requests are served against.
    max_batch:
        Micro-batch size of the wrapped engine (seed nodes per
        ``session.run``).
    max_wait_ms:
        Accepted for existing callers and ignored: nothing reads it,
        because the dispatcher never waits for company.
    workers:
        Thread-pool width for micro-batches inside one flush.
    dedup_seeds:
        Forwarded to the wrapped engine: sample each distinct seed once
        per flush and scatter its logits to every requester.
    """

    def __init__(self, session: InferenceSession, max_batch: int = 256,
                 max_wait_ms: float = 5.0, workers: int = 1,
                 dedup_seeds: bool = True):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.engine = ServingEngine(session, max_batch_size=int(max_batch),
                                    workers=workers, dedup_seeds=dedup_seeds)
        self._lock = threading.Lock()
        self._pending: List[Tuple[Future, np.ndarray, float]] = []  # guarded-by: self._lock
        self._pending_updates: List[Tuple[Future, "GraphDelta"]] = []  # guarded-by: self._lock
        self._wakeup = threading.Condition(self._lock)
        self._closed = False  # guarded-by: self._lock
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="repro-serving-dispatcher",
                                            daemon=True)
        self._dispatcher.start()

    # ------------------------------------------------------------------ #
    @property
    def session(self) -> InferenceSession:
        return self.engine.session

    @property
    def stats(self) -> EngineStats:
        """Engine counters; only the dispatcher thread ever mutates them."""
        return self.engine.stats

    def reset_stats(self) -> EngineStats:
        """Start a fresh measurement window; returns the closed window's
        counters.

        The wrapped engine's counters are committed before any of a
        flush's futures resolve, so once every outstanding future has been
        waited on (a load harness's warm-up boundary) the reset cannot
        race the dispatcher.
        """
        return self.engine.reset_stats()

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------------ #
    def submit(self, nodes: Sequence[int]) -> "Future[RequestResult]":
        """Queue a request; returns a future resolving to its result.

        Validation happens here (on the caller's thread) so a malformed
        request raises immediately instead of failing a coalesced flush.
        """
        nodes = validate_request_nodes(self.session, nodes)
        future: "Future[RequestResult]" = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            self._pending.append((future, nodes, time.perf_counter()))
            self._wakeup.notify()
        return future

    def predict(self, nodes: Sequence[int]) -> np.ndarray:
        """Blocking one-shot convenience: submit and wait for the logits."""
        return self.submit(nodes).result().logits

    def submit_update(self, delta: "GraphDelta") -> "Future[int]":
        """Queue a graph delta; returns a future resolving to the version.

        The dispatcher applies queued deltas at the next flush boundary —
        before serving the batch it takes in the same round — so a flush
        always runs entirely at one graph version and an in-flight
        micro-batch is never torn by an update.  Raises
        :class:`TypeError` on the caller's thread when the bound session
        cannot apply updates.
        """
        if not self.session.supports_updates:
            raise TypeError(f"{type(self.session).__name__} does not support "
                            f"streaming updates")
        future: "Future[int]" = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            self._pending_updates.append((future, delta))
            self._wakeup.notify()
        return future

    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        try:
            while True:
                with self._lock:
                    while not (self._pending or self._pending_updates
                               or self._closed):
                        self._wakeup.wait()
                    if not (self._pending or self._pending_updates):
                        return  # closed and drained
                    # Updates and batch leave the lock together: everything
                    # taken this round is served at the post-update version.
                    updates, self._pending_updates = self._pending_updates, []
                    batch, self._pending = self._pending, []
                if updates:
                    self._apply_updates(updates)
                if batch:
                    self._flush_batch(batch)
        finally:
            # The dispatcher is the engine's only user, so it closes it:
            # a close() whose join timed out cannot shut the worker pool
            # down under a running flush, or leave a pool recreated after.
            self.engine.close()

    def _apply_updates(self,
                       updates: List[Tuple[Future, "GraphDelta"]]) -> None:
        """Apply queued deltas on the dispatcher thread (flush boundary)."""
        for future, delta in updates:
            if not future.set_running_or_notify_cancel():
                continue  # caller cancelled while pending
            try:
                version = self.engine.apply_update(delta)
            except Exception as error:
                future.set_exception(error)
            else:
                future.set_result(version)

    def _flush_batch(self,
                     batch: List[Tuple[Future, np.ndarray, float]]) -> None:
        """Serve one coalesced batch on the dispatcher thread."""
        admitted: List[Tuple[Future, float]] = []
        for future, nodes, enqueued in batch:
            if not future.set_running_or_notify_cancel():
                continue  # caller cancelled while pending
            self.engine.submit(nodes)
            admitted.append((future, enqueued))
        if not admitted:
            return
        try:
            results = self.engine.flush()
        except Exception as error:  # pragma: no cover - engine-level failure
            for future, _ in admitted:
                future.set_exception(per_request_error(error))
            return
        now = time.perf_counter()
        for (future, enqueued), result in zip(admitted, results):
            if result.error is not None:
                # Micro-batch failures are isolated per request by the
                # engine — only the affected futures see the exception.
                future.set_exception(result.error)
                continue
            # Latency as the caller saw it: queueing wait + serving time.
            result.latency_seconds = now - enqueued
            future.set_result(result)

    # ------------------------------------------------------------------ #
    def flush_now(self) -> None:
        """Wake the dispatcher; it changes nothing a flush serves.

        The dispatcher already flushes whenever anything is pending, so
        this is kept only for callers that end a burst with it.
        """
        with self._lock:
            self._wakeup.notify()

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain the queue and stop the dispatcher (idempotent).

        The dispatcher closes the wrapped engine as it exits.  If
        ``timeout`` expires first, the drain carries on in the background.
        """
        with self._lock:
            self._closed = True
            self._wakeup.notify()
        self._dispatcher.join(timeout=timeout)

    def __enter__(self) -> "AsyncServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
