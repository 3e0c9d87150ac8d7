"""Traffic replay against :class:`~repro.serving.AsyncServingEngine`.

:func:`run_load` drives one deterministic :class:`~repro.loadgen.traffic.
LoadTrace` through a running engine and measures what production would
see:

* **Open-loop** replay submits each request at its scheduled arrival time
  regardless of completions, so queueing delay under overload is *measured*
  instead of hidden — per-request latency is ``completion − scheduled
  arrival`` (coordinated-omission-free), not ``completion − submit``.
* **Closed-loop** replay runs ``clients`` threads that each submit the next
  request the moment their previous one completes — the classic N-client
  saturation probe.  Arrival times in the trace are ignored; latency is the
  engine-reported queue + service time.

An optional warm-up prefix serves the head of the trace first and then
calls :meth:`~repro.serving.ServingEngine.reset_stats` (and snapshots the
block-cache counters), so the reported window measures steady state — the
cache hit rate is a *delta* over the measured window, not a lifetime
average diluted by cold misses.

Failure accounting: a failed request (its future carries an exception)
does not abort the run.  Both replay modes keep going, count the failure,
and report latency percentiles over the *successful* requests only — a
failed request has no meaningful service latency, and mixing in its
time-to-error would skew every percentile.  The failed requests still
occupy the measured wall-clock window (they consumed queue and engine
time), so ``achieved_qps`` counts successes over the full window and
``failure_rate`` reports the failed fraction.  Only a run in which *every*
measured request failed raises, since it has no latencies to summarise.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.loadgen.traffic import LoadTrace
from repro.serving.async_engine import AsyncServingEngine

#: Every measured window reports at least these metrics.
#: ``failure_rate`` is the failed fraction of the measured requests (failed
#: requests are excluded from the latency percentiles but still occupy the
#: measured window — see the module docstring).
LOADTEST_REQUIRED_METRICS = frozenset({
    "requests", "offered_qps", "achieved_qps",
    "p50_ms", "p95_ms", "p99_ms", "max_ms", "mean_ms",
    "deadline_ms", "slo_violation_rate", "cache_hit_rate",
    "failure_rate",
})

#: Replay modes :func:`run_load` understands.
MODES = ("open", "closed")

#: One replayed step ``(arrival, nodes, delta)``: a request, or — ``delta``
#: set — a graph update applied before the steps after it.  A plain load
#: run has no updates.
Step = Tuple[float, Optional[np.ndarray], Any]

#: What one replayed window reports: ``(latencies of successful requests,
#: measured wall-clock, failure count)``.
Replayed = Tuple[np.ndarray, float, int]


@dataclass(frozen=True)
class LoadRunResult:
    """Raw measurements of one replayed window (summarised by
    :func:`summarize_latencies` / :func:`metrics_from_run`)."""

    #: Latency of each *successful* request, in completion-eligible trace
    #: order (failed requests are excluded — they have no service latency).
    latencies_seconds: np.ndarray
    #: Wall-clock span of the measured window (first submit → last completion).
    measured_seconds: float
    #: The rate the trace offered (closed-loop: the achieved rate).
    offered_qps: float
    requests: int
    nodes: int
    micro_batches: int
    giga_bit_operations: float
    #: Block-cache hit/lookup deltas over the measured window (None = no cache).
    cache_hits: Optional[int]
    cache_lookups: Optional[int]
    #: Measured requests whose future carried an exception.
    failures: int = 0

    @property
    def achieved_qps(self) -> float:
        """Successfully served requests per second of measured wall-clock."""
        if self.measured_seconds <= 0:
            return 0.0
        return (self.requests - self.failures) / self.measured_seconds

    @property
    def failure_rate(self) -> float:
        """Failed fraction of the measured requests."""
        return self.failures / self.requests if self.requests else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Hit rate over the measured window (0 when no cache is attached)."""
        if not self.cache_lookups:
            return 0.0
        return self.cache_hits / self.cache_lookups


def summarize_latencies(latencies_seconds: np.ndarray,
                        deadline_ms: float) -> Dict[str, float]:
    """Percentile and SLO accounting over one measured latency trace.

    Returns the ``p50/p95/p99/max/mean`` milliseconds plus the fraction of
    requests that missed the ``deadline_ms`` SLO.
    """
    latencies = np.asarray(latencies_seconds, dtype=np.float64).reshape(-1)
    if latencies.size == 0:
        raise ValueError("cannot summarize an empty latency trace")
    if deadline_ms <= 0:
        raise ValueError("deadline_ms must be positive")
    milliseconds = latencies * 1e3
    p50, p95, p99 = np.percentile(milliseconds, [50.0, 95.0, 99.0])
    return {
        "p50_ms": float(p50),
        "p95_ms": float(p95),
        "p99_ms": float(p99),
        "max_ms": float(milliseconds.max()),
        "mean_ms": float(milliseconds.mean()),
        "deadline_ms": float(deadline_ms),
        "slo_violation_rate": float((milliseconds > deadline_ms).mean()),
    }


def metrics_from_run(run: LoadRunResult, deadline_ms: float) -> dict:
    """The full :data:`LOADTEST_REQUIRED_METRICS` set of one measured window."""
    metrics = summarize_latencies(run.latencies_seconds, deadline_ms)
    metrics.update({
        "requests": run.requests,
        "offered_qps": float(run.offered_qps),
        "achieved_qps": float(run.achieved_qps),
        "cache_hit_rate": float(run.cache_hit_rate),
        "failure_rate": float(run.failure_rate),
    })
    return metrics


def _cache_counters(engine: AsyncServingEngine) -> Optional[Tuple[int, int]]:
    """(hits, lookups) of the session's block cache, or None without one."""
    stats = getattr(engine.session, "cache_stats", lambda: None)()
    return None if stats is None else (stats.hits, stats.lookups)


class _CompletionTracker:
    """Done-callback sink for one open-loop replay.

    ``Future.result()`` can return on the waiting thread *before* the
    future's done callbacks have run (callbacks fire after the result is
    set, on the resolving thread) — reading the completion array right
    after ``result()`` therefore races the recorder and can observe an
    unwritten slot (a zero timestamp, i.e. a hugely negative latency).
    The tracker counts callbacks down and :meth:`wait` blocks until every
    recorder has actually written its slot.
    """

    def __init__(self, count: int) -> None:
        self.completions = np.zeros(count, dtype=np.float64)
        self.failed = np.zeros(count, dtype=bool)
        self._remaining = count
        self._lock = threading.Lock()
        self._all_done = threading.Event()

    def recorder(self, index: int) -> Callable[[Any], None]:
        def record(future: Any) -> None:
            self.completions[index] = time.perf_counter()
            try:
                self.failed[index] = future.exception() is not None
            except Exception:  # cancelled futures raise from .exception()
                self.failed[index] = True
            with self._lock:
                self._remaining -= 1
                if self._remaining == 0:
                    self._all_done.set()
        return record

    def wait(self) -> None:
        self._all_done.wait()


def _warm_up(engine: AsyncServingEngine, steps: Sequence[Step]) -> None:
    """Serve the steps one by one, unmeasured."""
    for _, nodes, delta in steps:
        if delta is not None:
            engine.submit_update(delta).result()
            continue
        try:
            engine.submit(nodes).result()
        except Exception:
            # Warm-up exists to heat caches, not to measure: a failed
            # warm-up request costs some warmth, never the run.
            pass


def _replay_open(engine: AsyncServingEngine,
                 steps: Sequence[Step]) -> Replayed:
    """Submit at scheduled arrivals; latency = completion − scheduled arrival.

    Arrivals are seconds from the window's start.  An update is awaited
    before the next step is offered, so the version every request is
    served at is a pure function of the steps; one that fails raises — a
    trace that cannot apply its own deltas is a harness bug, not load.
    """
    arrivals = np.asarray([arrival for arrival, _, delta in steps
                           if delta is None], dtype=np.float64)
    tracker = _CompletionTracker(arrivals.shape[0])

    index = 0
    first_submit = 0.0
    start = time.perf_counter()
    for arrival, nodes, delta in steps:
        delay = start + float(arrival) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if delta is not None:
            engine.submit_update(delta).result()
            continue
        if index == 0:
            first_submit = time.perf_counter()
        engine.submit(nodes).add_done_callback(tracker.recorder(index))
        index += 1
    # Synchronise on the *callbacks*, not on Future.result(): see
    # _CompletionTracker.  This also makes a failed request a counted
    # outcome instead of an exception that aborts the whole replay.
    tracker.wait()
    latencies = tracker.completions - (start + arrivals)
    # The measured window opens at the first *actual* submit, not at the
    # replay clock's zero: a trace whose first arrival is offset (a warm-up
    # tail, a sliced trace) would otherwise count idle lead-in as load time
    # and deflate achieved_qps.  Failed requests still close the window —
    # the engine spent wall-clock on them.
    measured = float(tracker.completions.max() - first_submit)
    return latencies[~tracker.failed], measured, int(tracker.failed.sum())


def _replay_closed(engine: AsyncServingEngine, trace: LoadTrace,
                   clients: int) -> Replayed:
    """N clients, each back-to-back over a shared request queue."""
    count = trace.num_requests
    latencies = np.zeros(count, dtype=np.float64)
    failed = np.zeros(count, dtype=bool)
    cursor = iter(range(count))
    lock = threading.Lock()

    def client_loop() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            try:
                result = engine.submit(trace.requests[index]).result()
            except Exception:
                # A failed request must not kill its client thread: the
                # remaining queue would never be drained and the run would
                # under-report by a whole client's worth of traffic.
                failed[index] = True
                continue
            latencies[index] = result.latency_seconds

    threads = [threading.Thread(target=client_loop,
                                name=f"repro-loadgen-client-{i}")
               for i in range(max(1, int(clients)))]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    measured = time.perf_counter() - start
    return latencies[~failed], float(measured), int(failed.sum())


def _measured_window(engine: AsyncServingEngine,
                     replay: Callable[[], Replayed], requests: int,
                     offered_qps: Optional[float]) -> LoadRunResult:
    """Run ``replay`` as the measured window of ``requests`` requests.

    Called at the warm-up boundary: every warm-up future has resolved, so
    its flush's counters are committed and the stats reset cannot race the
    dispatcher.  ``offered_qps=None`` reports the achieved rate (closed
    loop offers whatever it completes).
    """
    engine.reset_stats()
    cache_before = _cache_counters(engine)

    latencies, measured, failures = replay()
    if failures >= requests:
        raise RuntimeError(
            f"every measured request failed ({failures} of {requests}); "
            f"no latencies to summarise")
    if offered_qps is None:
        offered_qps = requests / measured if measured > 0 else 0.0

    cache_after = _cache_counters(engine)
    cache_hits = cache_lookups = None
    if cache_before is not None and cache_after is not None:
        cache_hits = cache_after[0] - cache_before[0]
        cache_lookups = cache_after[1] - cache_before[1]

    stats = engine.stats
    return LoadRunResult(
        latencies_seconds=latencies,
        measured_seconds=measured,
        offered_qps=float(offered_qps),
        requests=requests,
        nodes=stats.nodes,
        micro_batches=stats.micro_batches,
        giga_bit_operations=stats.giga_bit_operations,
        cache_hits=cache_hits,
        cache_lookups=cache_lookups,
        failures=failures,
    )


def run_load(engine: AsyncServingEngine, trace: LoadTrace, *,
             mode: str = "open", clients: int = 4,
             warmup_requests: int = 0) -> LoadRunResult:
    """Replay a trace through a running engine and measure the window.

    ``warmup_requests`` requests are taken off the *head* of the trace,
    served closed-loop, and excluded from every reported number (engine
    stats are reset at the warm-up boundary); the measured window replays
    the remainder in the requested ``mode``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if trace.num_requests == 0:
        raise ValueError("cannot replay an empty trace")

    warmup_requests = max(0, min(int(warmup_requests),
                                 trace.num_requests - 1))
    _warm_up(engine, [(0.0, nodes, None)
                      for nodes in trace.requests[:warmup_requests]])
    measured = trace.tail(warmup_requests)
    if mode == "open":
        steps = [(arrival, nodes, None) for arrival, nodes
                 in zip(measured.arrivals, measured.requests)]
        return _measured_window(engine, lambda: _replay_open(engine, steps),
                                measured.num_requests, measured.config.qps)
    return _measured_window(
        engine, lambda: _replay_closed(engine, measured, clients),
        measured.num_requests, None)
