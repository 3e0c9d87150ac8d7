"""Per-layer metrics: spans of the traced pass plus three stub benchmarks.

Layers are the program's modules — ``loadgen``, ``engine``
(``serving.async_engine`` + ``serving.engine``), ``session``, ``sampling``
(``graphs.sampling``), ``cache``, ``kernels``, ``sharding``, ``streaming``
(+ ``graphs.graph``) — and every number here is taken by benchmark code at
a call into one of them.  A layer that is not on a workload's path reports
0 (no spans): ``cache.*`` span metrics on ``gat_batch``, ``sharding.*``
anywhere but ``shard2_closed``, ``streaming.*`` anywhere but
``stream_open``.  Shard-worker internals stay invisible by design.

Three layers cannot be isolated by spans, so each gets a stub benchmark
with its neighbours replaced: the engine over a session that returns zeros,
a bare ``BlockCache`` under zipfian and uniform key streams, and every
registered kernel backend on one captured GAT/GCN block stack with a
bitwise comparison between backends.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from dataclasses import replace
from types import SimpleNamespace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

import replay
import tracing
import workloads
from tracing import END, FLUSH, ID, NAME, START, VALUE

Metric = Tuple[float, str]


def make_recorder(spec):
    """The run's recorder and the backend to build the session with."""
    from repro.kernels import resolve_backend

    recorder = tracing.Recorder()
    # Shard workers resolve their own backend from its *name*, so a timed
    # backend could not follow them across the process boundary.
    backend = None if spec.shards \
        else tracing.TimedBackend(resolve_backend(None), recorder)
    return recorder, backend


def _delta_kind(delta) -> str:
    if delta.removed_edges is not None:
        return "remove_edges"
    if delta.added_edges is not None:
        return "add_edges"
    return "update_features"


def install(recorder, session, engine) -> None:
    """Set the span wrappers on the instances this run constructed."""
    wrap = tracing.wrap
    wrap(recorder, engine.engine, "flush", "engine.flush", flush=True,
         value=lambda args, results: len(results))
    wrap(recorder, session, "run", "session.run",
         value=lambda args, run: (run.num_seeds, run.seconds))
    sampler = getattr(session, "sampler", None)
    if sampler is not None:
        wrap(recorder, sampler, "sample", "sampling.sample")
    cache = getattr(session, "cache", None)
    if cache is not None:
        wrap(recorder, cache, "get_rows", "cache.get_rows",
             value=lambda args, rows: len(rows))
        wrap(recorder, cache, "get_batch", "cache.get_batch",
             value=lambda args, batch: int(batch is not None))
        for method in ("put_raw_rows", "put_capped_rows"):
            wrap(recorder, cache, method, f"cache.{method}",
                 value=lambda args, _: len(args[0]))
        wrap(recorder, cache, "put_batch", "cache.put_batch")
        wrap(recorder, cache, "invalidate_nodes", "cache.invalidate_nodes",
             value=lambda args, evicted: (len(args[0]), evicted))
    if session.supports_updates:
        wrap(recorder, session, "apply_update", "session.apply_update",
             value=lambda args, _: _delta_kind(args[0]))
        wrap(recorder, session.graph, "apply_delta", "graph.apply_delta")
    router = getattr(session, "router", None)
    if router is not None:
        wrap(recorder, router, "submit_chunk", "sharding.submit_chunk",
             value=lambda args, chunk: chunk.chunk_id)
        wrap(recorder, router, "wait_chunk", "sharding.wait_chunk",
             value=lambda args, _: args[0].chunk_id)


class TracedPass:
    """Everything that is sampled around the traced window: wall clock,
    process-tree CPU, block-cache counters and collector pauses."""

    def __init__(self, recorder, session, cpu_clock: Callable[[], float]):
        self.recorder = recorder
        self.session = session
        self.cpu_clock = cpu_clock
        self.gc_gen2 = 0
        self.gc_pause_s = 0.0
        self._gc_started = 0.0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_gen2 += info["generation"] == 2

    def __enter__(self) -> "TracedPass":
        self.cache_before = self.session.cache_stats()
        gc.callbacks.append(self._on_gc)
        self.cpu_s = self.cpu_clock()
        self.start = time.perf_counter()
        self.recorder.enabled = True
        return self

    def __exit__(self, *exc_info) -> None:
        self.recorder.enabled = False
        self.wall_s = time.perf_counter() - self.start
        self.cpu_s = self.cpu_clock() - self.cpu_s
        gc.callbacks.remove(self._on_gc)
        self.cache_after = self.session.cache_stats()


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _pct(values: Sequence[float], q: float, scale: float = 1.0) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def _durations(spans: Sequence[list]) -> List[float]:
    return [span[END] - span[START] for span in spans]


def _busy(spans: Sequence[list], wall: float) -> float:
    return _ratio(tracing.covered([(s[START], s[END]) for s in spans]), wall)


# --------------------------------------------------------------------------- #
# the per-layer metric set
# --------------------------------------------------------------------------- #
def loadgen_metrics(spec, window, records, out: Dict[str, Metric]) -> None:
    latency = records.latencies_ms()
    failed = records.failed
    miss = failed | (latency > spec.deadline_ms)
    late = (records.submitted - records.scheduled) * 1e3
    open_loop = spec.loop == "open"
    out["loadgen.late_p99_ms"] = (_pct(late, 99) if open_loop else 0.0, "ms")
    out["loadgen.drain_s"] = (
        float(records.completed.max() - records.scheduled[-1])
        if open_loop else 0.0, "s")

    slo_rate = 0
    holds = True
    for rate in workloads.LADDER_RATES:
        # Step metrics belong to a ladder; a single-rate open loop has none.
        chosen = window.step(rate) if len(window.steps) > 1 else None
        prefix = f"loadgen.step{rate}"
        if chosen is None:
            for name, unit in (("p95_ms", "ms"), ("miss_ratio", "ratio"),
                               ("late_p99_ms", "ms")):
                out[f"{prefix}.{name}"] = (0.0, unit)
            continue
        answered = latency[chosen][~failed[chosen]]
        out[f"{prefix}.p95_ms"] = (_pct(answered, 95), "ms")
        out[f"{prefix}.miss_ratio"] = (float(miss[chosen].mean()), "ratio")
        out[f"{prefix}.late_p99_ms"] = (_pct(late[chosen], 99), "ms")
        # The backlog drains when the step's last requests still meet the
        # deadline: a queue that grows through the step fails its tail.
        tail = slice(chosen.stop - max(1, (chosen.stop - chosen.start) // 5),
                     chosen.stop)
        holds = holds and miss[chosen].mean() <= 1.0 - workloads.SLO_SHARE \
            and miss[tail].mean() <= 1.0 - workloads.SLO_SHARE
        if holds:
            slo_rate = rate
    out["loadgen.slo_rate_qps"] = (float(slo_rate), "1/s")

    reference = window.step(spec.reference_qps) or slice(None)
    answered = latency[reference][~failed[reference]]
    out["loadgen.slo_miss_ratio"] = (float(miss[reference].mean()), "ratio")
    out["loadgen.p99_ms"] = (_pct(answered, 99), "ms")
    out["loadgen.max_ms"] = (_pct(answered, 100), "ms")


def engine_metrics(by_name, records, out: Dict[str, Metric]) -> None:
    flushes = by_name["engine.flush"]
    runs_of = defaultdict(list)
    for run in by_name["session.run"]:
        runs_of[run[FLUSH]].append(run)
    flushes = [flush for flush in flushes if runs_of[flush[FLUSH]]]
    waits: List[float] = []
    replies: List[float] = []
    if flushes:
        # A request's future resolves right after its flush returns and
        # before the next flush starts, so it belongs to the last flush
        # that ended at or before its completion.
        ends = np.asarray([flush[END] for flush in flushes])
        first_run = np.asarray([min(run[START] for run in runs_of[f[FLUSH]])
                                for f in flushes])
        last_run = np.asarray([max(run[END] for run in runs_of[f[FLUSH]])
                               for f in flushes])
        owner = np.searchsorted(ends, records.completed, side="right") - 1
        known = (owner >= 0) & ~records.failed
        owner = owner[known]
        wait = first_run[owner] - records.submitted[known]
        waits = wait[wait >= 0]
        replies = records.completed[known] - last_run[owner]
    out["engine.wait_p50_ms"] = (_pct(waits, 50, 1e3), "ms")
    out["engine.wait_p95_ms"] = (_pct(waits, 95, 1e3), "ms")
    out["engine.reply_p50_ms"] = (_pct(replies, 50, 1e3), "ms")
    out["engine.requests_per_flush"] = (
        _mean([flush[VALUE] for flush in flushes]), "count")
    out["engine.seeds_per_run"] = (
        _mean([run[VALUE][0] for run in by_name["session.run"]
               if run[VALUE]]), "count")


def per_layer(spec, fixtures, inputs, records, traced: TracedPass, session,
              report, untraced_p50_ms: float, setup_s: float, smoke: bool
              ) -> Dict[str, Metric]:
    """Every per-layer metric of BENCHMARK.json, for this workload."""
    window = inputs.windows[1]
    spans = traced.recorder.spans()
    selfs = tracing.self_times(spans)
    by_name: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
    wall = traced.wall_s
    out: Dict[str, Metric] = {}

    out["loadgen.trace_gen_s"] = (inputs.trace_gen_s, "s")
    loadgen_metrics(spec, window, records, out)
    engine_metrics(by_name, records, out)
    out["engine.noop_us_per_request"] = (
        engine_noop_us(fixtures.num_nodes,
                       fixtures.artifacts[spec.conv].num_classes), "us")

    runs = by_name["session.run"]
    out["session.run_p50_ms"] = (_pct(_durations(runs), 50, 1e3), "ms")
    out["session.run_p95_ms"] = (_pct(_durations(runs), 95, 1e3), "ms")
    out["session.self_p50_ms"] = (
        _pct([selfs[run[ID]] for run in runs], 50, 1e3), "ms")
    out["session.busy_ratio"] = (_busy(runs, wall), "ratio")
    out["session.gbitops_per_request"] = (
        _ratio(report.giga_bit_operations, report.checked), "GBitOPs")

    samples = by_name["sampling.sample"]
    out["sampling.sample_p50_ms"] = (_pct(_durations(samples), 50, 1e3), "ms")
    out["sampling.self_p50_ms"] = (
        _pct([selfs[span[ID]] for span in samples], 50, 1e3), "ms")
    out["sampling.edges_per_request"] = (
        _ratio(report.edges, report.checked), "count")
    out["sampling.input_nodes_per_request"] = (
        _ratio(report.input_nodes, report.checked), "count")

    before, after = traced.cache_before, traced.cache_after
    if after is None:
        for name, unit in (("hit_ratio", "ratio"), ("evictions", "count"),
                           ("entries", "count"), ("mb", "MB")):
            out[f"cache.{name}"] = (0.0, unit)
    else:
        out["cache.hit_ratio"] = (
            _ratio(after.hits - before.hits,
                   after.lookups - before.lookups), "ratio")
        out["cache.evictions"] = (float(after.evictions - before.evictions),
                                  "count")
        out["cache.entries"] = (float(after.entries), "count")
        out["cache.mb"] = (after.bytes / 1e6, "MB")
    out["cache.batch_hit_ratio"] = (
        _mean([span[VALUE] for span in by_name["cache.get_batch"]]), "ratio")
    probes = by_name["cache.get_rows"]
    out["cache.probe_us_per_row"] = (
        _ratio(sum(_durations(probes)) * 1e6,
               sum(span[VALUE] for span in probes)), "us")
    fills = by_name["cache.put_raw_rows"] + by_name["cache.put_capped_rows"]
    out["cache.fill_us_per_row"] = (
        _ratio(sum(_durations(fills)) * 1e6,
               sum(span[VALUE] for span in fills)), "us")
    for stream, value in cache_micro(fixtures.num_nodes).items():
        out[f"cache.micro.{stream}_probe_us"] = (value, "us")

    kernel_spans: List[list] = []
    for op in tracing.KERNEL_OPS:
        calls = by_name[f"kernels.{op}"]
        kernel_spans += calls
        out[f"kernels.{op}_us"] = (_pct(_durations(calls), 50, 1e6), "us")
    out["kernels.busy_ratio"] = (_busy(kernel_spans, wall), "ratio")
    edge_calls = by_name["kernels.edge_spmm"]
    out["kernels.edge_spmm_macs"] = (
        _mean([span[VALUE][0] for span in edge_calls]), "count")
    out["kernels.edge_spmm_mb_moved"] = (
        _mean([span[VALUE][1] for span in edge_calls]) / 1e6, "MB")
    for name, value in kernels_micro(fixtures).items():
        out[f"kernels.micro.{name}_us"] = (value, "us")

    submitted = {span[VALUE]: span[START]
                 for span in by_name["sharding.submit_chunk"]}
    rpc = [span[END] - submitted[span[VALUE]]
           for span in by_name["sharding.wait_chunk"]
           if span[VALUE] in submitted]
    out["sharding.spawn_s"] = (setup_s if spec.shards else 0.0, "s")
    out["sharding.rpc_p50_ms"] = (_pct(rpc, 50, 1e3), "ms")
    out["sharding.rpc_p95_ms"] = (_pct(rpc, 95, 1e3), "ms")
    single = single_process_qps(spec, fixtures, inputs,
                                0.5 if smoke else 2.0) if spec.shards else 0.0
    out["sharding.single_proc_qps"] = (single, "1/s")
    out["sharding.overhead_ratio"] = (
        _ratio(single, records.goodput_qps(spec.deadline_ms))
        if spec.shards else 0.0, "ratio")
    router = getattr(session, "router", None)
    out["sharding.restarts"] = (
        float(sum(router.restarts(shard) for shard in range(spec.shards)))
        if router is not None else 0.0, "count")

    updates = by_name["session.apply_update"]
    for kind in ("add_edges", "remove_edges", "update_features"):
        out[f"streaming.{kind}_ms"] = (
            _pct(_durations([s for s in updates if s[VALUE] == kind]),
                 50, 1e3), "ms")
    out["streaming.graph_apply_delta_ms"] = (
        _pct(_durations(by_name["graph.apply_delta"]), 50, 1e3), "ms")
    invalidations = by_name["cache.invalidate_nodes"]
    out["streaming.cache_invalidate_ms"] = (
        _pct(_durations(invalidations), 50, 1e3), "ms")
    out["streaming.region_nodes_mean"] = (
        _mean([span[VALUE][0] for span in invalidations if span[VALUE]]),
        "count")
    out["streaming.invalidated_entries_mean"] = (
        _mean([span[VALUE][1] for span in invalidations if span[VALUE]]),
        "count")
    out["streaming.update_p50_ms"] = (
        _pct(records.update_seconds, 50, 1e3), "ms")
    out["streaming.update_p90_ms"] = (
        _pct(records.update_seconds, 90, 1e3), "ms")

    out["graphs.generate_s"] = (fixtures.build_seconds["graphs.generate_s"],
                                "s")
    out["serving.export_s"] = (fixtures.build_seconds["serving.export_s"], "s")
    out["proc.gc_gen2_pauses"] = (float(traced.gc_gen2), "count")
    out["proc.gc_pause_ms_total"] = (traced.gc_pause_s * 1e3, "ms")
    out["proc.cpu_s_per_request"] = (_ratio(traced.cpu_s, records.count), "s")
    latency = records.latencies_ms()
    chosen = window.step(spec.reference_qps) or slice(None)
    traced_p50 = _pct(latency[chosen][~records.failed[chosen]], 50)
    out["proc.trace_overhead_ratio"] = (_ratio(traced_p50, untraced_p50_ms),
                                        "ratio")
    # Reconciliation: the span clock around session.run against the
    # program's own SessionRun.seconds taken inside it.
    returned = [run for run in runs if run[VALUE]]  # a raise records 0
    program = sum(run[VALUE][1] for run in returned)
    out["proc.trace_residual_ratio"] = (
        _ratio(abs(sum(_durations(returned)) - program), program), "ratio")
    return out


# --------------------------------------------------------------------------- #
# stub microbenchmarks
# --------------------------------------------------------------------------- #
class _NoopSession:
    """The least a session can be: answers zeros, costs nothing."""

    request_invariant_cost = False
    supports_updates = False

    def __init__(self, num_nodes: int, num_classes: int) -> None:
        self.graph = SimpleNamespace(num_nodes=num_nodes)
        self.num_classes = num_classes

    def run(self, nodes):
        from repro.quant.bitops import BitOpsCounter
        from repro.serving import SessionRun

        return SessionRun(logits=np.zeros((len(nodes), self.num_classes)),
                          bit_operations=BitOpsCounter(),
                          num_seeds=len(nodes), num_input_nodes=0,
                          num_edges=0, seconds=0.0)


def engine_noop_us(num_nodes: int, num_classes: int,
                   requests: int = 4000) -> float:
    """Engine cost per request with the session stubbed out: coalescing,
    dedup, scatter and future hand-off for 8-seed requests submitted as
    fast as one thread can."""
    rng = np.random.default_rng(0)
    batches = [rng.integers(0, num_nodes, size=8) for _ in range(requests)]
    engine = workloads.build_engine(_NoopSession(num_nodes, num_classes))
    try:
        for nodes in batches[:200]:
            engine.submit(nodes).result()
        start = time.perf_counter()
        futures = [engine.submit(nodes) for nodes in batches]
        engine.flush_now()
        for future in futures:
            future.result()
        elapsed = time.perf_counter() - start
    finally:
        engine.close()
    return elapsed / requests * 1e6


def cache_micro(num_nodes: int, probes: int = 400, rows: int = 64
                ) -> Dict[str, float]:
    """Microseconds per probed row of a bare ``BlockCache`` (65536
    entries) when the key stream is zipfian (mostly hits) or uniform over
    the id space (mostly misses, each followed by a fill)."""
    from repro.cache import BlockCache
    from repro.loadgen.traffic import popularity_probabilities

    neighbours = (np.arange(10, dtype=np.int64),
                  np.ones(10, dtype=np.float32))
    result = {}
    for stream in ("zipf", "uniform"):
        rng = np.random.default_rng(0)
        weights = popularity_probabilities(
            num_nodes, "zipfian", workloads.ZIPF_SKEW) \
            if stream == "zipf" else None
        keys = rng.choice(num_nodes, size=(probes, rows), p=weights)
        cache = BlockCache(max_entries=65536)
        spent = 0.0
        for nodes in keys:
            start = time.perf_counter()
            found = cache.get_rows(nodes, 10, 0, 0)
            spent += time.perf_counter() - start
            missing = [int(node) for node, entry in zip(nodes, found)
                       if entry is None]
            cache.put_raw_rows(missing, [neighbours] * len(missing))
        result[stream] = spent / keys.size * 1e6
    return result


class _CaptureBackend:
    """Records the arguments of the first call of each kernel."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.calls: Dict[str, tuple] = {}

    def weight_matrix(self, weight):
        return self.inner.weight_matrix(weight)

    def __getattr__(self, op: str):
        def call(*args, **kwargs):
            self.calls.setdefault(op, (args, kwargs))
            return getattr(self.inner, op)(*args, **kwargs)
        return call


def kernels_micro(fixtures, repeats: int = 5) -> Dict[str, float]:
    """``<backend>.<op>`` -> p50 microseconds per call, on the operands of
    one captured request (128 uniform seeds, fanout 15: the ``gat_batch``
    shape; ``spmm`` from the GCN artifact on the same seeds).  Raises if a
    backend's output differs from the ``numpy`` reference by one bit."""
    from repro.kernels import get_backend

    gat = workloads.BY_NAME["gat_batch"]
    seeds = np.random.default_rng(0).choice(
        fixtures.num_nodes, size=gat.seeds_per_request, replace=False)
    capture = _CaptureBackend(get_backend("numpy"))
    for conv in ("gat", "gcn"):
        workloads.build_session(replace(gat, conv=conv), fixtures,
                                backend=capture).run(seeds)

    result = {}
    reference: Dict[str, object] = {}
    for name in ("numpy", "vectorized"):
        backend = get_backend(name)
        for op in tracing.KERNEL_OPS:
            args, kwargs = capture.calls[op]
            spent = []
            for _ in range(repeats):
                start = time.perf_counter()
                produced = getattr(backend, op)(*args, **kwargs)
                spent.append(time.perf_counter() - start)
            if name == "numpy":
                reference[op] = produced
            elif not _same(reference[op], produced):
                raise RuntimeError(f"backend {name!r} differs from the "
                                   f"numpy reference on {op}")
            result[f"{name}.{op}"] = float(np.median(spent)) * 1e6
    return result


def _same(left, right) -> bool:
    if isinstance(left, tuple):
        return all(_same(a, b) for a, b in zip(left, right))
    if left is None or right is None:
        return left is right
    return np.array_equal(left, right)


def single_process_qps(spec, fixtures, inputs, seconds: float) -> float:
    """The sharded workload's trace through a plain single-process
    ``BlockSession`` (same cache size), closed loop."""
    session = workloads.build_session(spec, fixtures, shards=0)
    engine = workloads.build_engine(session)
    try:
        replay.warm_up(engine, inputs.warmup, spec.clients, seconds)
        records = replay.closed_loop(engine, inputs.windows[1].requests,
                                     spec.clients, seconds)
    finally:
        workloads.tear_down(session, engine)
    return records.goodput_qps(spec.deadline_ms)
