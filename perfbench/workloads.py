"""The four workloads: what each one serves, with what traffic, and why.

Every knob that is the same for all four lives in the constants below;
what differs is one :class:`Workload` row.  Inputs are a pure function of
``(workload, --seed, --seconds)``: the program only ever sees the generated
seed-node arrays, arrival offsets and graph deltas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Engine and session knobs shared by every workload (the defaults
# ``repro loadtest`` documents, with two flush workers for the two cores).
MAX_BATCH = 256
MAX_WAIT_MS = 2.0
ENGINE_WORKERS = 2
SESSION_BATCH = 256
SAMPLER_SEED = 1
ZIPF_SKEW = 1.1
#: Which nodes are the popular ones, under every ``--seed``.
HOT_SET_SEED = 0

#: Requests whose replies are compared with the oracle, per window.
ORACLE_REQUESTS = 64
#: Warm-up stops at its request pool's end or this many seconds.
WARMUP_SECONDS = 5.0
#: Share of a ladder step's requests that must meet the deadline for the
#: step to count towards ``loadgen.slo_rate_qps``.
SLO_SHARE = 0.99
#: Offered rates of the open-loop ladder (they name ``loadgen.step<rate>.*``).
LADDER_RATES = (100, 200, 400, 800)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    conv: str
    pattern: str
    seeds_per_request: int
    fanout: int
    cache_size: int
    loop: str                      # "open" | "closed"
    deadline_ms: float
    warmup_requests: int
    #: Open loop: ``(offered rate, share of the window)`` per ladder step.
    ladder: Tuple[Tuple[int, int], ...] = ()
    #: Open loop: the step p50 / p95 / goodput are read at.
    reference_qps: int = 0
    #: Closed loop: requests generated per second of window — about 1.5x
    #: today's throughput, so the trace only wraps after a large speed-up.
    pool_qps: int = 0
    #: Client threads of the closed loop (and of every warm-up).
    clients: int = 2
    #: One GraphDelta before every this-many queries (0 = static graph).
    update_every: int = 0
    shards: int = 0


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="zipf_open",
        why="production-shaped: skewed 8-seed requests, cache on, open-loop "
            "100-800 qps ladder; cache and engine coalescing do the work "
            "and the cache-on capacity knee shows",
        conv="gcn", pattern="zipfian", seeds_per_request=8, fanout=10,
        cache_size=65536, loop="open", deadline_ms=50.0,
        warmup_requests=1500, reference_qps=200,
        # The reference step gets half the window: p95 needs its ~1200
        # samples, the other steps only have to show where the knee is.
        ladder=tuple(zip(LADDER_RATES, (1, 3, 1, 1)))),
    Workload(
        name="gat_batch",
        why="kernel-bound: 4-head GAT, uniform 128-seed requests, cache "
            "off, closed loop; edge-list kernels and sampling dominate and "
            "the cache is bypassed, so a cache change must not move it",
        conv="gat", pattern="uniform", seeds_per_request=128, fanout=15,
        cache_size=0, loop="closed", deadline_ms=250.0,
        warmup_requests=250, pool_qps=60),
    Workload(
        name="stream_open",
        why="writes beside reads: 100 qps open loop with a graph delta "
            "every 50 queries; the same cache and sampler under "
            "invalidation, where a read gain that costs apply_update shows",
        conv="gcn", pattern="zipfian", seeds_per_request=8, fanout=10,
        cache_size=65536, loop="open", deadline_ms=50.0,
        warmup_requests=500, reference_qps=100, ladder=((100, 1),),
        update_every=50),
    Workload(
        name="shard2_closed",
        why="two shard worker processes, one closed-loop client: the only "
            "workload where router RPC, pickling and halo fetches do the work",
        conv="gcn", pattern="zipfian", seeds_per_request=8, fanout=10,
        cache_size=65536, loop="closed", deadline_ms=100.0,
        warmup_requests=500, pool_qps=120, shards=2,
        # One client, not two: two lock into coalesced or alternating
        # flushes for seconds at a time, and p50 flips between ~16 and
        # ~22 ms from run to run.  A flush holds one chunk either way, so
        # the two workers never ran side by side; one client measures the
        # same RPC path and repeats.
        clients=1),
)

BY_NAME: Dict[str, Workload] = {spec.name: spec for spec in WORKLOADS}


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
@dataclass
class Window:
    """One measured window's inputs."""

    requests: Sequence[np.ndarray]
    #: Open loop: scheduled seconds from the window's start.
    arrivals: Optional[np.ndarray] = None
    #: Open loop: ``(rate, first index, end index, start second, end
    #: second)`` per ladder step.
    steps: Tuple[Tuple[int, int, int, float, float], ...] = ()
    #: Stream: window position -> delta applied just before that query.
    updates: Optional[Dict[int, object]] = None

    def step(self, rate: int) -> Optional[slice]:
        """The requests of the ladder step offered at ``rate``."""
        for step_rate, first, end, _, _ in self.steps:
            if step_rate == rate:
                return slice(first, end)
        return None


@dataclass
class Inputs:
    warmup: Sequence[np.ndarray]
    warmup_updates: Optional[Dict[int, object]]
    windows: List[Window]
    trace_gen_s: float


def _traffic(spec: Workload, num_nodes: int, seed: int, count: int,
             qps: float):
    from repro.loadgen import TrafficConfig

    return TrafficConfig(num_nodes=num_nodes, pattern=spec.pattern,
                         skew=ZIPF_SKEW,
                         seeds_per_request=spec.seeds_per_request,
                         arrival="poisson", qps=qps, num_requests=count,
                         seed=seed)


def pin_hot_set(requests: Sequence[np.ndarray], num_nodes: int
                ) -> List[np.ndarray]:
    """Relabel a trace so its k-th most requested node is the same node
    under every seed.

    ``generate_trace`` draws *which* nodes are popular from the seed too.
    Under skew 1.1 the top node is in most requests, so its degree and its
    shard would decide a run's latency: the ten seeds of a calibration
    would be ten different workloads.  The hot set's identity is therefore
    a constant of the benchmark (a fixed permutation of the node ids);
    the seed still decides every request's composition and arrival.
    Distinct nodes stay distinct, so requests keep their shape.
    """
    flat = np.concatenate(requests)
    nodes, first_at, counts = np.unique(flat, return_index=True,
                                        return_counts=True)
    by_popularity = np.lexsort((first_at, -counts))
    hot_order = np.random.default_rng(HOT_SET_SEED).permutation(num_nodes)
    relabel = np.full(num_nodes, -1, dtype=np.int64)
    relabel[nodes[by_popularity]] = hot_order[:nodes.shape[0]]
    return [relabel[nodes] for nodes in requests]


def build_inputs(spec: Workload, num_nodes: int, num_features: int, seed: int,
                 seconds: float, windows: int, warmup_scale: float = 1.0
                 ) -> Inputs:
    """Warm-up pool plus ``windows`` consecutive windows of ``seconds``
    each, all cut from ONE seeded trace so they share its popularity
    ranking (the hot set the warm-up heats is the hot set measured)."""
    from repro.loadgen import TemporalConfig, generate_temporal_trace, \
        generate_trace

    warm = max(1, int(spec.warmup_requests * warmup_scale))
    if spec.update_every:
        warm -= warm % spec.update_every  # windows start on a delta boundary
        warm = max(warm, spec.update_every)
    start = time.perf_counter()
    if spec.loop == "closed":
        per_window = max(8, int(spec.pool_qps * seconds))
    else:
        shares = sum(share for _, share in spec.ladder)
        durations = [seconds * share / shares for _, share in spec.ladder]
        per_step = [max(8, int(round(rate * duration)))
                    for (rate, _), duration in zip(spec.ladder, durations)]
        per_window = sum(per_step)
    total = warm + windows * per_window

    updates_at: Dict[int, object] = {}
    if spec.update_every:
        stream = generate_temporal_trace(TemporalConfig(
            traffic=_traffic(spec, num_nodes, seed, total, 1.0),
            update_every=spec.update_every, edges_per_update=4,
            feature_nodes_per_update=2, num_features=num_features, seed=seed))
        requests, unit_arrivals = [], []
        for event in stream.events:
            if event.is_query:
                requests.append(event.nodes)
                unit_arrivals.append(event.arrival)
            else:
                updates_at[len(requests)] = event.delta
        unit_arrivals = np.asarray(unit_arrivals)
    else:
        trace = generate_trace(_traffic(spec, num_nodes, seed, total, 1.0))
        requests, unit_arrivals = list(trace.requests), trace.arrivals
    if spec.pattern == "zipfian":
        requests = pin_hot_set(requests, num_nodes)
    trace_gen_s = time.perf_counter() - start

    built: List[Window] = []
    for cursor in range(warm, total, per_window):
        window = Window(requests=requests[cursor:cursor + per_window])
        if spec.loop == "open":
            # The trace's unit-rate Poisson gaps, stretched per step so
            # each step lasts exactly its share of the window: a Poisson
            # process conditioned on the step's request count.  Bursts
            # stay; the step's length stops being a random variable.
            gaps = np.diff(unit_arrivals[cursor - 1:cursor + per_window])
            arrivals = np.empty(per_window)
            steps, first, begins = [], 0, 0.0
            for (rate, _), size, duration in zip(spec.ladder, per_step,
                                                 durations):
                inside = np.cumsum(gaps[first:first + size])
                arrivals[first:first + size] = \
                    begins + (inside - inside[0]) * (duration / inside[-1])
                steps.append((rate, first, first + size, begins,
                              begins + duration))
                first += size
                begins += duration
            window.arrivals = arrivals
            window.steps = tuple(steps)
        if spec.update_every:
            window.updates = {at - cursor: delta
                              for at, delta in updates_at.items()
                              if cursor <= at < cursor + per_window}
        built.append(window)
    warmup_updates = {at: delta for at, delta in updates_at.items()
                      if at < warm} if spec.update_every else None
    return Inputs(warmup=requests[:warm], warmup_updates=warmup_updates,
                  windows=built, trace_gen_s=trace_gen_s)


# --------------------------------------------------------------------------- #
# the served stack
# --------------------------------------------------------------------------- #
def build_session(spec: Workload, fixtures, graph=None, backend=None,
                  cached: bool = True, shards: Optional[int] = None):
    """The workload's session.  ``cached=False`` / ``shards=0`` give the
    oracle's uncached single-process variant of the same configuration."""
    from repro.serving import BlockSession

    graph = fixtures.graph(private=bool(spec.update_every)) \
        if graph is None else graph
    artifact = fixtures.artifacts[spec.conv]
    cache_size = spec.cache_size if cached else 0
    shards = spec.shards if shards is None else shards
    if shards:
        from repro.sharding import ShardedBlockSession

        return ShardedBlockSession(
            artifact, graph, shards=shards, partition="degree",
            fanouts=spec.fanout, batch_size=SESSION_BATCH, seed=SAMPLER_SEED,
            cache_size=cache_size)
    return BlockSession(artifact, graph, fanouts=spec.fanout,
                        batch_size=SESSION_BATCH, seed=SAMPLER_SEED,
                        cache_size=cache_size, backend=backend)


def build_engine(session):
    from repro.serving import AsyncServingEngine

    return AsyncServingEngine(session, max_batch=MAX_BATCH,
                              max_wait_ms=MAX_WAIT_MS, workers=ENGINE_WORKERS)


def set_up(spec: Workload, fixtures, backend=None):
    """Fixtures in hand -> session (+ shard workers) + engine -> first
    one-seed probe answered.  Returns ``(session, engine, seconds)``."""
    start = time.perf_counter()
    session = build_session(spec, fixtures, backend=backend)
    engine = build_engine(session)
    engine.submit([0]).result()
    return session, engine, time.perf_counter() - start


def tear_down(session, engine) -> None:
    engine.close()
    close = getattr(session, "close", None)
    if close is not None:
        close()


# --------------------------------------------------------------------------- #
# oracle
# --------------------------------------------------------------------------- #
@dataclass
class OracleReport:
    checked: int = 0
    mismatches: int = 0
    #: Per-request work of the oracle's own (uncoalesced, uncached) runs —
    #: counts that depend on the inputs only, so they repeat exactly.
    giga_bit_operations: float = 0.0
    edges: int = 0
    input_nodes: int = 0


def oracle_indices(spec: Workload, window: Window, records) -> np.ndarray:
    """Up to ``ORACLE_REQUESTS`` evenly spaced answered requests.

    A closed loop sends as many requests as the program manages, so the
    indices are spread over the first half of its request pool (about
    three quarters of what it sends today): the same requests are checked
    — and the same per-request work counted — on every run of a seed.
    """
    horizon = records.count if spec.loop == "open" \
        else min(records.count, len(window.requests) // 2)
    answered = np.flatnonzero(~records.failed[:horizon])
    if answered.shape[0] <= ORACLE_REQUESTS:
        return answered
    picks = np.linspace(0, answered.shape[0] - 1, ORACLE_REQUESTS)
    return answered[np.unique(picks.astype(np.int64))]


def check_static(spec: Workload, fixtures, window: Window, records,
                 report: OracleReport) -> None:
    """Replies == an uncached single-process ``BlockSession.run``, bitwise.

    For ``shard2_closed`` this is the sharded == single-process invariant;
    for the cached workloads it is cached == uncached.
    """
    oracle = build_session(spec, fixtures, graph=fixtures.graph(),
                           cached=False, shards=0)
    capacity = len(window.requests)
    for index in oracle_indices(spec, window, records):
        run = oracle.run(window.requests[int(index) % capacity])
        _account(report, run, records.replies[int(index)])


def _account(report: OracleReport, run, reply) -> bool:
    report.checked += 1
    report.giga_bit_operations += run.giga_bit_operations()
    report.edges += run.num_edges
    report.input_nodes += run.num_input_nodes
    same = reply is not None and np.array_equal(run.logits, reply)
    report.mismatches += 0 if same else 1
    return same


def check_stream(spec: Workload, fixtures, inputs: Inputs,
                 all_records: Sequence, session, report: OracleReport
                 ) -> None:
    """Streamed == fresh static session, bitwise, along the whole stream.

    Replays every delta onto a private graph copy and, at each oracle
    request, builds a *fresh* uncached session on the graph as it then is.
    The engine applies a delta before serving the batch it takes in the
    same round, so a query still pending when the next delta was submitted
    is legitimately served one version later: a reply that does not match
    at its own version is re-checked after the next delta and only counts
    as a mismatch if it matches neither.

    Finally the streamed session itself (cache and all) is compared with a
    fresh static session on the final-version graph.
    """
    graph = fixtures.graph(private=True)
    for position in sorted(inputs.warmup_updates or {}):
        graph.apply_delta(inputs.warmup_updates[position])

    def fresh():
        return build_session(spec, fixtures, graph=graph, cached=False)

    retry: List[Tuple[np.ndarray, np.ndarray]] = []  # (request, reply)
    for window, records in zip(inputs.windows, all_records):
        picks = set(int(index) for index
                    in oracle_indices(spec, window, records))
        for position in range(records.count):
            delta = (window.updates or {}).get(position)
            if delta is not None:
                graph.apply_delta(delta)
                oracle = fresh() if retry else None
                for nodes, reply in retry:
                    if np.array_equal(oracle.run(nodes).logits, reply):
                        report.mismatches -= 1
                retry = []
            if position in picks:
                nodes, reply = window.requests[position], \
                    records.replies[position]
                if not _account(report, fresh().run(nodes), reply):
                    retry.append((nodes, reply))

    if session.graph.version != graph.version:
        report.mismatches += 1
    static = fresh()
    for nodes in inputs.warmup[:16]:
        report.checked += 1
        if not np.array_equal(session.run(nodes).logits,
                              static.run(nodes).logits):
            report.mismatches += 1
