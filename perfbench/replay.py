"""Open- and closed-loop replay through ``AsyncServingEngine``.

The program's own ``repro.loadgen.run_load`` / ``run_stream`` summarise a
window into percentiles; the benchmark needs the raw per-request record —
scheduled arrival, actual submit, completion, reply — to check replies
against an oracle, to report how late the generator ran, and to map each
request onto the flush that served it.  The replay loops below are the same
shape as the program's (submit at scheduled arrivals; updates awaited before
the next query) and drive the same engine entry points.

Load comes from this one process: the calling thread submits an open loop,
``clients`` threads run a closed loop — never more than the machine's cores.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass
class Records:
    """Per-request measurements of one replayed window (times are
    ``perf_counter`` seconds; index = position in the window)."""

    scheduled: np.ndarray
    submitted: np.ndarray
    completed: np.ndarray
    failed: np.ndarray
    #: Reply logits per request (``None`` where the request failed).
    replies: List[Optional[np.ndarray]]
    #: Seconds from ``submit_update`` to the applied version, per update
    #: (streams only).
    update_seconds: List[float] = field(default_factory=list)

    @classmethod
    def empty(cls, count: int) -> "Records":
        return cls(scheduled=np.zeros(count), submitted=np.zeros(count),
                   completed=np.zeros(count),
                   failed=np.zeros(count, dtype=bool),
                   replies=[None] * count)

    @property
    def count(self) -> int:
        return int(self.scheduled.shape[0])

    def latencies_ms(self) -> np.ndarray:
        """Completion minus *scheduled* arrival (for a closed loop the
        schedule is the submit itself)."""
        return (self.completed - self.scheduled) * 1e3

    def goodput_qps(self, deadline_ms: float,
                    chosen: slice = slice(None)) -> float:
        """Requests of ``chosen`` answered within the deadline, per second
        of wall clock from their first scheduled arrival to their last
        completion — a miss, a failure and a backlog that drains late all
        lower it."""
        in_time = ~self.failed[chosen] \
            & (self.latencies_ms()[chosen] <= deadline_ms)
        wall = self.completed[chosen].max() - self.scheduled[chosen].min()
        return float(in_time.sum() / wall)


class _Completions:
    """Done-callback sink.  ``Future.result()`` may return before the
    future's callbacks ran, so the replay waits on the callbacks."""

    def __init__(self, records: Records, expected: int) -> None:
        self.records = records
        self._remaining = expected
        self._lock = threading.Lock()
        self._done = threading.Event()
        if expected == 0:
            self._done.set()

    def callback(self, index: int):
        def record(future) -> None:
            records = self.records
            records.completed[index] = time.perf_counter()
            try:
                records.replies[index] = future.result().logits
            except Exception:  # a failed request is a counted outcome
                records.failed[index] = True
            with self._lock:
                self._remaining -= 1
                if self._remaining == 0:
                    self._done.set()
        return record

    def wait(self) -> None:
        self._done.wait()


def warm_up(engine, requests: Sequence[np.ndarray], clients: int,
            limit_seconds: float,
            updates: Optional[Dict[int, object]] = None) -> None:
    """Serve requests closed-loop until they run out or the clock does.

    Discarded: it heats the block cache, the allocator and lazily built
    state.  With ``updates`` (position -> delta) the stream's warm-up
    deltas are all applied in order, whatever the clock says, so the
    measured window starts from a known graph version.
    """
    stop_at = time.perf_counter() + limit_seconds
    if updates:
        for position, nodes in enumerate(requests):
            if position in updates:
                engine.submit_update(updates[position]).result()
            if time.perf_counter() < stop_at:
                _swallow(engine, nodes)
        return

    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def client(_slot: int) -> None:
        while time.perf_counter() < stop_at:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            _swallow(engine, requests[index])

    _run_threads(client, clients)


def _swallow(engine, nodes) -> None:
    try:
        engine.submit(nodes).result()
    except Exception:  # warm-up heats caches; it never fails the run
        pass


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, args=(slot,),
                                name=f"perfbench-client-{slot}")
               for slot in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(engine, requests: Sequence[np.ndarray], arrivals: np.ndarray,
              updates: Optional[Dict[int, object]] = None) -> Records:
    """Submit each request at its scheduled arrival, whatever has completed.

    ``arrivals`` are seconds from the window's start.  A delta in
    ``updates`` (position -> delta) is submitted and awaited just before
    the query at that position, exactly as ``repro streamtest`` does: the
    stall it causes delays later submits, and because latency runs from
    the *scheduled* arrival that delay is charged to the requests it hit.
    """
    count = len(requests)
    records = Records.empty(count)
    completions = _Completions(records, count)
    updates = updates or {}
    start = time.perf_counter()
    records.scheduled[:] = start + arrivals
    for index in range(count):
        delay = records.scheduled[index] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        delta = updates.get(index)
        if delta is not None:
            begun = time.perf_counter()
            engine.submit_update(delta).result()
            records.update_seconds.append(time.perf_counter() - begun)
        records.submitted[index] = time.perf_counter()
        engine.submit(requests[index]) \
            .add_done_callback(completions.callback(index))
    engine.flush_now()
    completions.wait()
    return records


def closed_loop(engine, requests: Sequence[np.ndarray], clients: int,
                seconds: float) -> Records:
    """``clients`` threads, each submitting its next request the moment the
    previous reply arrives, for a fixed ``seconds`` (no early stop).

    Clients stop *taking* requests when the clock runs out; requests in
    flight complete and count.  Request ``i`` is ``requests[i % len]``: the
    trace is sized above today's rate and wraps around only if the program
    outruns it.
    """
    capacity = len(requests)
    limit = 8 * capacity
    records = Records.empty(limit)
    cursor = iter(range(limit))
    lock = threading.Lock()
    stop_at = time.perf_counter() + seconds

    def client(_slot: int) -> None:
        while time.perf_counter() < stop_at:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            records.submitted[index] = time.perf_counter()
            try:
                records.replies[index] = \
                    engine.submit(requests[index % capacity]).result().logits
            except Exception:  # counted, and the client keeps going
                records.failed[index] = True
            records.completed[index] = time.perf_counter()

    _run_threads(client, clients)
    # Indices are handed out in order, so the requests sent are a prefix.
    sent = int(np.count_nonzero(records.submitted))
    return Records(scheduled=records.submitted[:sent],
                   submitted=records.submitted[:sent],
                   completed=records.completed[:sent],
                   failed=records.failed[:sent],
                   replies=records.replies[:sent])
