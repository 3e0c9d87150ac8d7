"""The router front of the sharded serving tier.

:class:`ShardRouter` owns one worker process per shard plus a listener
thread per worker, and mediates **all** cross-shard traffic:

* **chunk dispatch** — a seed chunk goes to the shard owning the plurality
  of its seeds (deterministic tie-break to the lowest shard id); the owner
  executes the whole chunk, fetching halo rows for the minority seeds, so
  micro-batch composition is identical to a single-process session and the
  logits are bit-identical.
* **halo relay** — a worker's ``halo_request`` is forwarded to the owning
  worker as a ``rows_query``; the owner's ``rows_reply`` is routed back as
  a ``halo_reply``.  Workers never hold each other's queues, which keeps
  worker restarts race-free: the router swaps in fresh queues and no peer
  can observe the stale ones.
* **failure isolation** — a worker that dies mid-flight (listener notices
  the dead process) or exceeds the per-chunk deadline fails *only* the
  chunks assigned to it; pending halo queries targeting the dead worker
  are answered with an error so dependent chunks on other shards fail fast
  instead of hanging.  The worker is then restarted with a fresh pair of
  queues and the next request on that shard succeeds.
* **ready handshake** — a worker reports ``ready`` (or ``init_error``)
  once its session is built.  The constructor waits for every shard and
  raises :class:`ShardWorkerError` with the fleet closed when one fails;
  a generation that dies before it was ever ready is not restarted — it
  would fail the same way again — and its shard rejects new chunks.

Locking: the router's mutable tables (chunks in flight, halo relays,
worker handles) are mutated from caller threads *and* listener threads;
every access is guarded by one ``self._lock`` (see the ``guarded-by``
annotations, machine-checked by reprolint RL03).  Queue operations happen
outside the lock — ``multiprocessing.Queue`` is internally synchronized —
so the lock is never held across IPC.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache import CacheStats
from repro.quant.bitops import BitOpsCounter
from repro.sharding.worker import WorkerConfig, worker_main


class ShardWorkerError(RuntimeError):
    """Base class of router-detected shard failures."""


class ShardWorkerDied(ShardWorkerError):
    """The worker process executing the chunk died mid-flight."""


class ShardTimeoutError(ShardWorkerError):
    """The chunk exceeded the router's per-request deadline."""


#: Successful chunk payload: (logits, bitops, input_nodes, edges).
ChunkResult = Tuple[np.ndarray, BitOpsCounter, int, int]


class _Chunk:
    """One in-flight seed chunk: completion event plus its outcome."""

    __slots__ = ("chunk_id", "shard", "generation", "event", "result",
                 "error")

    def __init__(self, chunk_id: int, shard: int, generation: int):
        self.chunk_id = chunk_id
        self.shard = shard
        self.generation = generation
        self.event = threading.Event()
        self.result: Optional[ChunkResult] = None
        self.error: Optional[BaseException] = None


class _Worker:
    """Parent-side handle of one worker process, one per generation.

    ``ready`` is set once the outcome of the worker's session build is
    known; ``init_error`` is then ``None`` (serving) or what went wrong.
    Both are written once, before ``ready`` is set, and read only after it.
    """

    __slots__ = ("shard", "generation", "process", "cmd_q", "out_q", "ready",
                 "init_error")

    def __init__(self, shard: int, generation: int, process, cmd_q, out_q):
        self.shard = shard
        self.generation = generation
        self.process = process
        self.cmd_q = cmd_q
        self.out_q = out_q
        self.ready = threading.Event()
        self.init_error: Optional[str] = None

    def fail_init(self, detail: str) -> None:
        if not self.ready.is_set():
            self.init_error = detail
            self.ready.set()


def pick_start_method() -> str:
    """``fork`` where available (Linux — workers inherit the graph and
    artifact copy-on-write), else the platform default."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class ShardRouter:
    """Spawn, feed, monitor and restart the per-shard worker fleet."""

    #: Listener poll interval; bounds worker-death detection latency.
    _POLL_SECONDS = 0.05

    def __init__(self, configs: List[WorkerConfig],
                 request_deadline_s: Optional[float] = None):
        if not configs:
            raise ValueError("the router needs at least one worker config")
        self.n_shards = len(configs)
        self.assignment = configs[0].assignment
        self.request_deadline_s = request_deadline_s
        self._ctx = multiprocessing.get_context(pick_start_method())
        self._configs = configs
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: self._lock
        self._next_chunk = 0  # guarded-by: self._lock
        self._next_query = 0  # guarded-by: self._lock
        self._workers: Dict[int, _Worker] = {}  # guarded-by: self._lock
        self._chunks: Dict[int, _Chunk] = {}  # guarded-by: self._lock
        #: halo token -> (requester shard, target shard, original token)
        self._halo: Dict[int, Tuple[int, int, object]] = {}  # guarded-by: self._lock
        self._restarts: Dict[int, int] = {}  # guarded-by: self._lock
        with self._lock:
            workers = [self._spawn_locked(shard)
                       for shard in range(self.n_shards)]
        # Ready handshake: a fleet one of whose shards cannot build its
        # session is closed here, not respawned behind a healthy-looking API.
        for worker in workers:
            worker.ready.wait()
        try:
            with self._lock:
                for shard in range(self.n_shards):
                    self._current_locked(shard)
        except ShardWorkerError:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn_locked(self, shard: int) -> _Worker:  # requires-lock: self._lock
        generation = self._workers[shard].generation + 1 \
            if shard in self._workers else 0
        cmd_q = self._ctx.Queue()
        out_q = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main, args=(self._configs[shard], cmd_q, out_q),
            name=f"repro-shard-{shard}", daemon=True)
        process.start()
        worker = _Worker(shard, generation, process, cmd_q, out_q)
        self._workers[shard] = worker
        listener = threading.Thread(target=self._listen,
                                    args=(worker,),
                                    name=f"repro-shard-listen-{shard}",
                                    daemon=True)
        listener.start()
        return worker

    def _current_locked(self, shard: int) -> _Worker:  # requires-lock: self._lock
        worker = self._workers[shard]
        if worker.init_error is not None:
            raise ShardWorkerError(f"shard {shard} worker failed to start: "
                                   f"{worker.init_error}")
        return worker

    def _is_current_locked(self, worker: _Worker) -> bool:  # requires-lock: self._lock
        return self._workers.get(worker.shard) is worker

    def restart_worker(self, shard: int,
                       error: Optional[BaseException] = None) -> None:
        """Replace a worker with a fresh process + queues; fail everything
        that was in flight on the old generation.

        Idempotent per generation: concurrent detectors (listener, deadline
        waiters) race here and only the first one acts.  A worker that
        failed to build its session is retired without a replacement: the
        next generation would fail the same way.
        """
        dead_error = error or ShardWorkerDied(
            f"shard {shard} worker died mid-flight")
        with self._lock:
            if self._closed:
                return
            old = self._workers.get(shard)
            if old is None:
                return
            failed_chunks = [chunk for chunk in self._chunks.values()
                             if chunk.shard == shard
                             and chunk.generation == old.generation]
            for chunk in failed_chunks:
                del self._chunks[chunk.chunk_id]
            # Halo queries *targeting* the dead shard must fail fast so the
            # requesters' chunks error out instead of waiting forever;
            # requests *from* the dead shard are simply dropped.
            failed_halo = [(relay_id, entry)
                           for relay_id, entry in self._halo.items()
                           if entry[1] == shard or entry[0] == shard]
            for relay_id, _entry in failed_halo:
                del self._halo[relay_id]
            requesters = [
                (self._workers[entry[0]], entry[2])
                for _relay_id, entry in failed_halo
                if entry[1] == shard and entry[0] in self._workers
                and entry[0] != shard]
            if old.init_error is None:
                self._restarts[shard] = self._restarts.get(shard, 0) + 1
                self._spawn_locked(shard)
        # Outside the lock: queue puts and process teardown do IPC.
        for chunk in failed_chunks:
            chunk.error = dead_error
            chunk.event.set()
        for worker, token in requesters:
            worker.cmd_q.put(("halo_reply", token, False,
                              f"owner shard {shard} died"))
        self._reap(old)

    @staticmethod
    def _reap(worker: _Worker) -> None:
        """Tear down a superseded worker's process and queues."""
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        for q in (worker.cmd_q, worker.out_q):
            q.cancel_join_thread()
            q.close()

    def restarts(self, shard: int) -> int:
        """How many times the shard's worker has been restarted."""
        with self._lock:
            return self._restarts.get(shard, 0)

    # ------------------------------------------------------------------ #
    # listener: one thread per worker generation
    # ------------------------------------------------------------------ #
    def _listen(self, worker: _Worker) -> None:
        while True:
            try:
                message = worker.out_q.get(timeout=self._POLL_SECONDS)
            except queue.Empty:
                with self._lock:
                    if self._closed or not self._is_current_locked(worker):
                        return
                    alive = worker.process.is_alive()
                if not alive:
                    # Drain what the worker managed to send before dying.
                    while True:
                        try:
                            self._dispatch(worker, worker.out_q.get_nowait())
                        except queue.Empty:
                            break
                    worker.fail_init("the worker process died before it "
                                     "was ready")
                    self.restart_worker(worker.shard)
                    return
                continue
            except (EOFError, OSError):
                return  # queue torn down by close()/restart
            self._dispatch(worker, message)

    def _dispatch(self, worker: _Worker, message: tuple) -> None:
        kind = message[0]
        if kind == "ready":
            worker.ready.set()
        elif kind == "init_error":
            worker.fail_init(message[1])
        elif kind == "result":
            _, chunk_id, logits, bitops, input_nodes, edges = message
            with self._lock:
                chunk = self._chunks.pop(chunk_id, None)
            if chunk is not None:
                chunk.result = (logits, bitops, input_nodes, edges)
                chunk.event.set()
        elif kind == "chunk_error":
            _, chunk_id, detail = message
            with self._lock:
                chunk = self._chunks.pop(chunk_id, None)
            if chunk is not None:
                chunk.error = ShardWorkerError(
                    f"shard {chunk.shard} failed a chunk: {detail}")
                chunk.event.set()
        elif kind == "halo_request":
            _, token, requester, target, nodes, fanout, hop, epoch = message
            with self._lock:
                if self._closed:
                    return
                relay_id = self._next_query
                self._next_query += 1
                self._halo[relay_id] = (requester, target, token)
                owner = self._workers.get(target)
            if owner is None or owner.init_error is not None:
                self._finish_halo(relay_id, False,
                                  f"shard {target} is not serving")
            else:
                owner.cmd_q.put(("rows_query", relay_id, nodes, fanout, hop,
                                 epoch))
        elif kind == "rows_reply":
            _, relay_id, ok, payload = message
            self._finish_halo(relay_id, ok, payload)
        elif kind == "stats_reply":
            with self._lock:
                chunk = self._chunks.pop(message[1], None)
            if chunk is not None:
                chunk.result = message[2]
                chunk.event.set()

    def _finish_halo(self, relay_id: int, ok: bool, payload) -> None:
        with self._lock:
            entry = self._halo.pop(relay_id, None)
            requester = None if entry is None \
                else self._workers.get(entry[0])
        if entry is not None and requester is not None:
            requester.cmd_q.put(("halo_reply", entry[2], ok, payload))

    # ------------------------------------------------------------------ #
    # chunk dispatch
    # ------------------------------------------------------------------ #
    def owner_shard(self, seeds: np.ndarray) -> int:
        """Plurality owner of the chunk's seeds (ties -> lowest shard id)."""
        votes = np.bincount(self.assignment[seeds], minlength=self.n_shards)
        return int(votes.argmax())

    def submit_chunk(self, seeds: np.ndarray) -> _Chunk:
        """Queue one seed chunk on its owning worker; returns the handle."""
        shard = self.owner_shard(seeds)
        with self._lock:
            if self._closed:
                raise ShardWorkerError("router is closed")
            worker = self._current_locked(shard)
            chunk = _Chunk(self._next_chunk, shard, worker.generation)
            self._next_chunk += 1
            self._chunks[chunk.chunk_id] = chunk
        worker.cmd_q.put(("predict", chunk.chunk_id, seeds))
        return chunk

    def wait_chunk(self, chunk: _Chunk) -> ChunkResult:
        """Block until the chunk completes; enforce the per-request deadline.

        On deadline overrun the (presumed hung) worker is killed and
        restarted, and the chunk fails with :class:`ShardTimeoutError`;
        sibling chunks on other shards are unaffected.
        """
        deadline = None if self.request_deadline_s is None \
            else time.monotonic() + self.request_deadline_s
        while not chunk.event.wait(timeout=self._POLL_SECONDS):
            if deadline is not None and time.monotonic() > deadline:
                with self._lock:
                    pending = self._chunks.pop(chunk.chunk_id, None)
                if pending is not None:
                    pending.error = ShardTimeoutError(
                        f"shard {chunk.shard} chunk exceeded the "
                        f"{self.request_deadline_s:.3f}s deadline")
                    pending.event.set()
                    self.restart_worker(chunk.shard, error=ShardWorkerDied(
                        f"shard {chunk.shard} worker killed after deadline "
                        f"overrun"))
                break
        chunk.event.wait()
        if chunk.error is not None:
            raise chunk.error
        assert chunk.result is not None
        return chunk.result

    # ------------------------------------------------------------------ #
    # fleet-wide helpers
    # ------------------------------------------------------------------ #
    def inject_fault(self, shard: int, kind: str, value: float = 0.0) -> None:
        """Arm a deterministic fault on the shard's next predict
        (``die_next`` / ``hang_next``) — the fault-injection test hook."""
        if kind not in ("die_next", "hang_next"):
            raise ValueError(f"unknown fault kind {kind!r}")
        with self._lock:
            worker = self._current_locked(shard)
        worker.cmd_q.put(("fault", kind, value))

    def cache_stats(self, timeout: float = 5.0) -> Optional[CacheStats]:
        """Aggregate block-cache counters across live workers (None when
        caching is off or a worker did not answer in time)."""
        handles = []
        with self._lock:
            if self._closed:
                return None
            workers = [self._current_locked(shard)
                       for shard in range(self.n_shards)]
            for shard, worker in enumerate(workers):
                chunk = _Chunk(self._next_chunk, shard, worker.generation)
                self._next_chunk += 1
                self._chunks[chunk.chunk_id] = chunk
                handles.append((worker, chunk))
        for worker, chunk in handles:
            worker.cmd_q.put(("stats", chunk.chunk_id))
        totals = CacheStats()
        for _worker, chunk in handles:
            if not chunk.event.wait(timeout=timeout):
                with self._lock:
                    self._chunks.pop(chunk.chunk_id, None)
                return None
            stats = chunk.result
            if stats is None:
                return None
            totals = CacheStats(
                hits=totals.hits + stats.hits,
                misses=totals.misses + stats.misses,
                evictions=totals.evictions + stats.evictions,
                entries=totals.entries + stats.entries,
                bytes=totals.bytes + stats.bytes)
        return totals

    def close(self) -> None:
        """Stop every worker and listener (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            pending = list(self._chunks.values())
            self._chunks.clear()
            self._halo.clear()
        for chunk in pending:
            chunk.error = ShardWorkerError("router closed")
            chunk.event.set()
        for worker in workers:
            try:
                worker.cmd_q.put(("stop",))
            except (ValueError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in workers:
            self._reap(worker)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
