"""Replay harness accounting against a stub inference session."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.loadgen import (
    LOADTEST_REQUIRED_METRICS,
    TrafficConfig,
    generate_trace,
    metrics_from_run,
    run_load,
    summarize_latencies,
)
from repro.loadgen.traffic import LoadTrace
from repro.serving import AsyncServingEngine

NUM_NODES = 64
NUM_CLASSES = 3


class StubSession:
    """Counts every served row; optionally exposes block-cache counters."""

    request_invariant_cost = False

    def __init__(self, with_cache: bool = False):
        self.graph = SimpleNamespace(num_nodes=NUM_NODES)
        self.rows_served = 0
        self.runs = 0
        self._lock = threading.Lock()
        self._with_cache = with_cache
        self._hits = 0
        self._lookups = 0

    def run(self, nodes):
        nodes = np.asarray(nodes)
        with self._lock:
            self.rows_served += int(nodes.size)
            self.runs += 1
            if self._with_cache:
                # every row is a lookup; every second one a hit
                self._lookups += int(nodes.size)
                self._hits += int(nodes.size) // 2
        return SimpleNamespace(
            logits=np.zeros((nodes.size, NUM_CLASSES)),
            giga_bit_operations=lambda: 1e-3 * nodes.size)

    def cache_stats(self):
        if not self._with_cache:
            return None
        return SimpleNamespace(hits=self._hits, lookups=self._lookups)


def _trace(num_requests=24, seeds_per_request=4, qps=400.0, arrival="fixed"):
    return generate_trace(TrafficConfig(
        num_nodes=NUM_NODES, seeds_per_request=seeds_per_request,
        arrival=arrival, qps=qps, num_requests=num_requests, seed=3))


def _engine(session, **kwargs):
    return AsyncServingEngine(session, max_batch=32, workers=1, **kwargs)


class TestReplayModes:
    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_every_request_served_exactly_once(self, mode):
        session = StubSession()
        trace = _trace()
        with _engine(session) as engine:
            run = run_load(engine, trace, mode=mode, clients=3)
        assert run.requests == trace.num_requests
        assert run.nodes == trace.num_requests * 4
        # flush-level seed dedup may collapse zipfian seeds shared across
        # coalesced requests, but never drops or duplicates a request's rows
        assert 0 < session.rows_served <= trace.num_requests * 4
        assert run.latencies_seconds.shape == (trace.num_requests,)
        assert (run.latencies_seconds > 0).all()
        assert run.measured_seconds > 0
        assert run.achieved_qps > 0

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_dedup_off_executes_every_requested_row(self, mode):
        session = StubSession()
        trace = _trace()
        with _engine(session, dedup_seeds=False) as engine:
            run = run_load(engine, trace, mode=mode, clients=3)
        assert run.requests == trace.num_requests
        assert session.rows_served == trace.num_requests * 4

    def test_open_loop_reports_configured_offered_rate(self):
        trace = _trace(qps=400.0)
        with _engine(StubSession()) as engine:
            run = run_load(engine, trace, mode="open")
        assert run.offered_qps == 400.0

    def test_closed_loop_offered_equals_achieved(self):
        trace = _trace()
        with _engine(StubSession()) as engine:
            run = run_load(engine, trace, mode="closed", clients=2)
        assert run.offered_qps == pytest.approx(run.achieved_qps)

    def test_bad_mode_rejected(self):
        trace = _trace(num_requests=2)
        with _engine(StubSession()) as engine:
            with pytest.raises(ValueError, match="mode"):
                run_load(engine, trace, mode="sideways")


class TestMeasuredWindow:
    def test_offset_first_arrival_excluded_from_window(self):
        """The window opens at the first *submit*, not the replay clock's
        zero — an idle lead-in before the first arrival is not load time."""
        lead_in = 0.3
        base = _trace(num_requests=8, qps=400.0)
        trace = LoadTrace(arrivals=base.arrivals + lead_in,
                          requests=base.requests, config=base.config)
        with _engine(StubSession()) as engine:
            run = run_load(engine, trace, mode="open")
        # 8 requests at 400 qps span ~17.5 ms after the first submit; a
        # window anchored at the replay start would measure >= 0.3 s.
        assert run.measured_seconds < lead_in
        assert run.measured_seconds > 0
        assert run.achieved_qps > 8 / lead_in
        # latencies stay anchored at the scheduled arrivals
        assert (run.latencies_seconds > 0).all()
        assert (run.latencies_seconds < lead_in).all()


class TestWarmup:
    def test_warmup_excluded_from_measured_window(self):
        session = StubSession()
        trace = _trace(num_requests=20)
        # dedup off: open-loop requests that coalesce into one flush would
        # share seeds, and the stub would see fewer rows than were requested
        with _engine(session, dedup_seeds=False) as engine:
            run = run_load(engine, trace, mode="open", warmup_requests=8)
        # the stub saw every row, the measured window only the tail
        assert session.rows_served == 20 * 4
        assert run.requests == 12
        assert run.nodes == 12 * 4
        assert run.latencies_seconds.shape == (12,)

    def test_warmup_capped_below_trace_length(self):
        session = StubSession()
        trace = _trace(num_requests=5)
        with _engine(session) as engine:
            run = run_load(engine, trace, mode="closed", clients=1,
                           warmup_requests=100)
        # at least one measured request always remains
        assert run.requests == 1
        assert session.rows_served == 5 * 4


class TestCacheDelta:
    def test_hit_rate_is_window_delta_not_lifetime(self):
        session = StubSession(with_cache=True)
        trace = _trace(num_requests=16)
        with _engine(session) as engine:
            run = run_load(engine, trace, mode="closed", clients=1,
                           warmup_requests=6)
        # stub hits exactly half its lookups in every window, so a correct
        # delta matches 0.5 even though warm-up traffic also moved counters
        assert run.cache_lookups == 10 * 4
        assert run.cache_hit_rate == pytest.approx(0.5)

    def test_no_cache_reports_zero(self):
        with _engine(StubSession(with_cache=False)) as engine:
            run = run_load(engine, _trace(num_requests=4), mode="closed",
                           clients=1)
        assert run.cache_hits is None
        assert run.cache_lookups is None
        assert run.cache_hit_rate == 0.0


class TestLatencySummary:
    def test_known_synthetic_trace(self):
        """1..100 ms ramp: every statistic is checkable by hand."""
        latencies = np.arange(1, 101) / 1e3     # 1ms ... 100ms
        metrics = summarize_latencies(latencies, deadline_ms=90.0)
        assert metrics["max_ms"] == pytest.approx(100.0)
        assert metrics["mean_ms"] == pytest.approx(50.5)
        # 10 of 100 samples exceed the 90 ms deadline
        assert metrics["slo_violation_rate"] == pytest.approx(0.10)
        assert metrics["deadline_ms"] == 90.0
        for key, q in (("p50_ms", 50.0), ("p95_ms", 95.0), ("p99_ms", 99.0)):
            expected = np.percentile(np.arange(1.0, 101.0), q)
            assert metrics[key] == pytest.approx(expected)
        assert metrics["p50_ms"] <= metrics["p95_ms"] <= metrics["p99_ms"] \
            <= metrics["max_ms"]

    def test_all_within_deadline(self):
        metrics = summarize_latencies(np.full(10, 1e-3), deadline_ms=5.0)
        assert metrics["slo_violation_rate"] == 0.0
        assert metrics["p99_ms"] == pytest.approx(1.0)

    def test_rejects_empty_or_bad_deadline(self):
        with pytest.raises(ValueError):
            summarize_latencies(np.array([]), deadline_ms=10.0)
        with pytest.raises(ValueError):
            summarize_latencies(np.array([1e-3]), deadline_ms=0.0)

    def test_rejects_negative_deadline(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            summarize_latencies(np.array([1e-3]), deadline_ms=-5.0)

    def test_deadline_is_inclusive(self):
        """A request that finishes exactly at the deadline meets the SLO."""
        metrics = summarize_latencies(np.array([0.25, 0.5, 0.75]),
                                      deadline_ms=500.0)
        assert metrics["slo_violation_rate"] == pytest.approx(1 / 3)

    def test_single_sample(self):
        metrics = summarize_latencies(np.array([0.004]), deadline_ms=10.0)
        for key in ("p50_ms", "p95_ms", "p99_ms", "max_ms", "mean_ms"):
            assert metrics[key] == pytest.approx(4.0)
        assert metrics["slo_violation_rate"] == 0.0

    def test_order_and_shape_do_not_matter(self):
        """The trace is a bag of latencies: permuting or reshaping it, or
        passing a list, gives the same summary as plain floats."""
        latencies = np.random.default_rng(0).exponential(0.01, size=64)
        reference = summarize_latencies(latencies, deadline_ms=15.0)
        shuffled = np.random.default_rng(1).permutation(latencies)
        assert summarize_latencies(shuffled, deadline_ms=15.0) == \
            pytest.approx(reference)
        assert summarize_latencies(latencies.reshape(8, 8),
                                   deadline_ms=15.0) == reference
        assert summarize_latencies(latencies.tolist(),
                                   deadline_ms=15.0) == reference
        assert all(type(value) is float for value in reference.values())


class TestMetrics:
    def test_metrics_from_run_covers_loadtest_schema(self):
        with _engine(StubSession()) as engine:
            run = run_load(engine, _trace(), mode="open", warmup_requests=4)
        metrics = metrics_from_run(run, deadline_ms=50.0)
        assert LOADTEST_REQUIRED_METRICS <= metrics.keys()
        assert metrics["requests"] == run.requests
        assert metrics["p50_ms"] <= metrics["p95_ms"] <= metrics["p99_ms"] \
            <= metrics["max_ms"]
        assert 0.0 <= metrics["slo_violation_rate"] <= 1.0

    def test_metrics_from_run_is_summary_plus_run_counters(self):
        with _engine(StubSession(with_cache=True)) as engine:
            run = run_load(engine, _trace(), mode="closed", clients=2,
                           warmup_requests=4)
        metrics = metrics_from_run(run, deadline_ms=50.0)
        summary = summarize_latencies(run.latencies_seconds, deadline_ms=50.0)
        assert {key: metrics[key] for key in summary} == summary
        assert set(metrics) - set(summary) == {
            "requests", "offered_qps", "achieved_qps", "cache_hit_rate",
            "failure_rate"}
        assert metrics["requests"] == 20
        assert metrics["offered_qps"] == run.offered_qps
        assert metrics["achieved_qps"] == run.achieved_qps
        # the stub hits floor(half) of each micro-batch's rows
        assert metrics["cache_hit_rate"] == run.cache_hit_rate
        assert 0.0 < metrics["cache_hit_rate"] <= 0.5
        assert metrics["failure_rate"] == 0.0

    def test_required_metrics_are_exactly_what_a_run_reports(self):
        with _engine(StubSession()) as engine:
            run = run_load(engine, _trace(num_requests=8), mode="open")
        assert set(metrics_from_run(run, deadline_ms=50.0)) == \
            LOADTEST_REQUIRED_METRICS

    def test_package_exports_the_harness_functions(self):
        """``repro.loadgen`` re-exports the summary from the harness, the
        one place it is defined."""
        import repro.loadgen as loadgen
        from repro.loadgen import harness

        assert loadgen.summarize_latencies is harness.summarize_latencies
        assert loadgen.metrics_from_run is harness.metrics_from_run
        assert loadgen.LOADTEST_REQUIRED_METRICS is \
            harness.LOADTEST_REQUIRED_METRICS


class FailingSession(StubSession):
    """Raises for any batch containing the poisoned node ``NUM_NODES - 1``."""

    POISON = NUM_NODES - 1

    def run(self, nodes):
        nodes = np.asarray(nodes)
        if (nodes == self.POISON).any():
            raise RuntimeError("poisoned row")
        return super().run(nodes)


def _poisoned_trace(num_requests=12, poison_every=3):
    """A fixed-rate trace where every ``poison_every``-th request fails."""
    base = _trace(num_requests=num_requests, seeds_per_request=1)
    requests = []
    for index, nodes in enumerate(base.requests):
        if index % poison_every == 0:
            requests.append(np.asarray([FailingSession.POISON],
                                       dtype=np.int64))
        else:
            requests.append(np.asarray([index % (NUM_NODES - 1)],
                                       dtype=np.int64))
    return LoadTrace(arrivals=base.arrivals, requests=tuple(requests),
                     config=base.config)


class TestFailureAccounting:
    """A failed request is a counted outcome, never an aborted run."""

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_failures_counted_not_fatal(self, mode):
        trace = _poisoned_trace(num_requests=12, poison_every=3)
        session = FailingSession()
        # max_batch=1: every request is its own micro-batch, so exactly
        # the poisoned requests fail
        with AsyncServingEngine(session, max_batch=1, workers=1) as engine:
            run = run_load(engine, trace, mode=mode, clients=2)
        assert run.requests == 12
        assert run.failures == 4
        assert run.failure_rate == pytest.approx(4 / 12)
        # percentiles cover only the successes
        assert run.latencies_seconds.shape == (8,)
        assert (run.latencies_seconds > 0).all()
        metrics = metrics_from_run(run, deadline_ms=50.0)
        assert metrics["failure_rate"] == pytest.approx(4 / 12)
        assert LOADTEST_REQUIRED_METRICS <= metrics.keys()
        # achieved_qps counts successes only
        assert run.achieved_qps == pytest.approx(
            8 / run.measured_seconds)

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_all_failed_run_raises(self, mode):
        trace = _poisoned_trace(num_requests=4, poison_every=1)
        with AsyncServingEngine(FailingSession(), max_batch=1) as engine:
            with pytest.raises(RuntimeError, match="every measured request"):
                run_load(engine, trace, mode=mode, clients=2)

    def test_failed_warmup_requests_are_swallowed(self):
        # warm-up head is entirely poisoned; the measured tail is clean
        base = _poisoned_trace(num_requests=10, poison_every=1)
        clean = _trace(num_requests=10, seeds_per_request=1)
        requests = tuple(base.requests[:4]) + tuple(clean.requests[4:])
        trace = LoadTrace(arrivals=base.arrivals, requests=requests,
                          config=base.config)
        with AsyncServingEngine(FailingSession(), max_batch=1) as engine:
            run = run_load(engine, trace, mode="open", warmup_requests=4)
        assert run.requests == 6
        assert run.failures == 0


class _SlowCallbackFuture:
    """A resolved future whose done callbacks land visibly *after* result().

    Reproduces the race the completion tracker exists for: the waiter in
    ``Future.result()`` wakes as soon as the result is set, but done
    callbacks run afterwards on the resolving thread.
    """

    def __init__(self, delay: float):
        self._delay = delay
        self._callbacks = []
        self._result = SimpleNamespace(latency_seconds=1e-3, error=None)
        self._thread = None

    def add_done_callback(self, fn):
        def delayed():
            import time
            time.sleep(self._delay)
            fn(self)
        self._thread = threading.Thread(target=delayed)
        self._thread.start()

    def exception(self):
        return None


class _SlowCallbackEngine:
    """Stub engine: results are 'ready' long before callbacks have run."""

    def __init__(self, delay: float = 0.05):
        self.session = SimpleNamespace(graph=SimpleNamespace(
            num_nodes=NUM_NODES))
        self.delay = delay

    def submit(self, nodes):
        return _SlowCallbackFuture(self.delay)


class TestCompletionCallbackRace:
    def test_open_loop_waits_for_callbacks_not_results(self):
        """Regression: reading completions right after the last result()
        observed unwritten slots (zero timestamps -> hugely negative
        latencies).  The tracker must block until every callback ran."""
        from repro.loadgen.harness import _replay_open

        trace = _trace(num_requests=6, seeds_per_request=1, qps=2000.0)
        latencies, measured, failures = _replay_open(
            _SlowCallbackEngine(delay=0.05),
            [(arrival, nodes, None) for arrival, nodes
             in zip(trace.arrivals, trace.requests)])
        assert failures == 0
        assert latencies.shape == (6,)
        # every slot was written: no zero-timestamp completions survive
        assert (latencies > 0).all()
        assert measured > 0


class TestPerRequestError:
    def test_clones_are_independent_same_type_and_args(self):
        from repro.serving.engine import per_request_error

        original = ValueError("bad batch", 42)
        first = per_request_error(original)
        second = per_request_error(original)
        assert first is not original and second is not original
        assert first is not second
        assert type(first) is ValueError and first.args == original.args
        assert first.__cause__ is original

    def test_uncopyable_error_falls_back_to_original(self):
        from repro.serving.engine import per_request_error

        class Uncopyable(RuntimeError):
            def __copy__(self):
                raise TypeError("no copies")

        original = Uncopyable("x")
        assert per_request_error(original) is original

    def test_flush_failure_carries_distinct_exceptions(
            self, gated_session_class):
        """Two requests failed by one micro-batch must not share one
        exception instance (shared tracebacks / mutated args bleed
        between callers)."""
        session = gated_session_class(FailingSession())
        with AsyncServingEngine(session, max_batch=32) as engine:
            session.hold(engine)
            first = engine.submit([FailingSession.POISON, 0])
            second = engine.submit([FailingSession.POISON, 1])
            session.release()
            error_one = first.exception(timeout=10.0)
            error_two = second.exception(timeout=10.0)
        # both requests were failed by the same flush
        assert session.flushes == [1, 2]
        assert error_one is not None and error_two is not None
        assert error_one is not error_two
        assert type(error_one) is type(error_two)
        assert error_one.args == error_two.args
