"""Temporal traces: interleaved graph updates and queries, replayed live.

Streaming serving is only worth its machinery if it holds up under the
traffic shape that motivates it — queries arriving *while* the graph
changes underneath them.  This module generates that shape as a pure
function of a :class:`TemporalConfig` (same config, same trace, bit for
bit, like :mod:`repro.loadgen.traffic` before it) and replays it through
an :class:`~repro.serving.AsyncServingEngine` whose session supports
:class:`~repro.streaming.GraphDelta` updates.

The event stream interleaves the deterministic query trace of a wrapped
:class:`~repro.loadgen.traffic.TrafficConfig` with update events every
``update_every`` queries.  Updates cycle through the three delta kinds —
edge additions, feature overwrites, edge removals — with removals drawn
only from edges a previous update of the same trace added, so a temporal
trace is always applicable to the base graph regardless of its edge list.

Replay (:func:`run_stream`) submits updates through
:meth:`~repro.serving.AsyncServingEngine.submit_update` and waits for each
update future before offering the next query, so served versions are
deterministic: every query in the trace observes exactly the updates that
precede it.  Query failures are counted, not fatal (same accounting as
:func:`~repro.loadgen.harness.run_load`); a failed *update* raises — a
trace that cannot apply its own deltas is a harness bug, not load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.loadgen.harness import LoadRunResult, _measured_window, \
    _replay_open, _warm_up, metrics_from_run
from repro.loadgen.traffic import TrafficConfig, generate_trace
from repro.serving.async_engine import AsyncServingEngine
from repro.streaming import GraphDelta

#: Update kinds a temporal trace cycles through, in order.
UPDATE_KINDS = ("add_edges", "update_features", "remove_edges")


@dataclass(frozen=True)
class TemporalConfig:
    """Full description of one deterministic update/query stream.

    Parameters
    ----------
    traffic:
        The wrapped query-traffic config; its ``num_nodes`` is also the
        id space updates draw endpoints from.
    update_every:
        One update event after every this-many queries (0 disables
        updates, degenerating to plain traffic).
    edges_per_update:
        Edges added (or removed) per edge-kind update.
    feature_nodes_per_update:
        Feature rows overwritten per feature-kind update.
    num_features:
        Width of the served graph's feature matrix (replacement rows must
        match it).
    seed:
        Root of the update generator — deliberately separate from the
        traffic seed so the same query trace can be replayed under
        different update schedules.
    """

    traffic: TrafficConfig
    update_every: int = 8
    edges_per_update: int = 4
    feature_nodes_per_update: int = 2
    num_features: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.update_every < 0:
            raise ValueError("update_every must be non-negative")
        if self.edges_per_update <= 0:
            raise ValueError("edges_per_update must be positive")
        if self.feature_nodes_per_update <= 0:
            raise ValueError("feature_nodes_per_update must be positive")
        if self.feature_nodes_per_update > self.traffic.num_nodes:
            raise ValueError("feature_nodes_per_update must not exceed "
                             "num_nodes")
        if self.num_features <= 0:
            raise ValueError("num_features must be positive")


@dataclass(frozen=True)
class TemporalEvent:
    """One stream event: a query (seed nodes) or an update (a delta)."""

    #: Seconds from stream start, non-decreasing.
    arrival: float
    #: ``"query"`` or one of :data:`UPDATE_KINDS`.
    kind: str
    #: Seed nodes (query events only).
    nodes: Optional[np.ndarray] = None
    #: The delta to apply (update events only).
    delta: Optional[GraphDelta] = None

    @property
    def is_query(self) -> bool:
        return self.kind == "query"


@dataclass(frozen=True)
class TemporalTrace:
    """One replayable update/query stream."""

    events: Tuple[TemporalEvent, ...]
    config: TemporalConfig

    @property
    def num_queries(self) -> int:
        return sum(1 for event in self.events if event.is_query)

    @property
    def num_updates(self) -> int:
        return len(self.events) - self.num_queries


def generate_temporal_trace(config: TemporalConfig) -> TemporalTrace:
    """Materialise the deterministic event stream a config describes.

    Update events inherit the arrival time of the query they precede
    (they apply at that flush boundary, consuming no offered-load time of
    their own).  Removals draw from the pool of previously *added* unique
    edges, each pair removed at most once, so every delta in the stream
    is valid against the base graph whatever its edge list holds.
    """
    query_trace = generate_trace(config.traffic)
    rng = np.random.default_rng(config.seed)
    num_nodes = config.traffic.num_nodes

    events: List[TemporalEvent] = []
    added_pool: List[Tuple[int, int]] = []
    update_index = 0
    for position, (arrival, nodes) in enumerate(zip(query_trace.arrivals,
                                                    query_trace.requests)):
        if config.update_every and position \
                and position % config.update_every == 0:
            kind = UPDATE_KINDS[update_index % len(UPDATE_KINDS)]
            update_index += 1
            delta: Optional[GraphDelta] = None
            if kind == "add_edges":
                edges = rng.integers(0, num_nodes,
                                     size=(2, config.edges_per_update))
                weights = rng.random(config.edges_per_update) \
                    .astype(np.float32) + np.float32(0.5)
                delta = GraphDelta(added_edges=edges, added_weights=weights)
                # Deduplicate per update: removal drops every occurrence
                # of a pair, so one pool entry per distinct pair.
                seen = set(added_pool)
                for u, v in zip(edges[0], edges[1]):
                    pair = (int(u), int(v))
                    if pair not in seen:
                        seen.add(pair)
                        added_pool.append(pair)
            elif kind == "update_features":
                feature_nodes = rng.choice(
                    num_nodes, size=config.feature_nodes_per_update,
                    replace=False).astype(np.int64)
                rows = rng.random((config.feature_nodes_per_update,
                                   config.num_features)).astype(np.float32)
                delta = GraphDelta(feature_nodes=feature_nodes, features=rows)
            else:  # remove_edges — only ever edges this trace added
                take = min(config.edges_per_update, len(added_pool))
                if take:
                    chosen = rng.choice(len(added_pool), size=take,
                                        replace=False)
                    pairs = [added_pool[int(i)] for i in sorted(chosen)]
                    for pair in pairs:
                        added_pool.remove(pair)
                    edges = np.asarray(pairs, dtype=np.int64).T
                    delta = GraphDelta(removed_edges=edges)
            if delta is not None:
                events.append(TemporalEvent(arrival=float(arrival),
                                            kind=kind, delta=delta))
        events.append(TemporalEvent(arrival=float(arrival), kind="query",
                                    nodes=nodes))
    return TemporalTrace(events=tuple(events), config=config)


@dataclass(frozen=True)
class StreamRunResult:
    """Measurements of one replayed temporal stream.

    Query accounting matches :class:`~repro.loadgen.harness.LoadRunResult`
    exactly (it is one, in :attr:`load`); the stream adds the applied
    update count and the graph version the stream ended at.
    """

    load: LoadRunResult
    updates: int
    final_version: int


def metrics_from_stream(result: StreamRunResult, deadline_ms: float) -> dict:
    """The load-test metric set of one stream, plus update counts."""
    metrics = metrics_from_run(result.load, deadline_ms)
    metrics.update({
        "updates": result.updates,
        "final_version": result.final_version,
    })
    return metrics


def run_stream(engine: AsyncServingEngine, trace: TemporalTrace, *,
               warmup_events: int = 0) -> StreamRunResult:
    """Replay a temporal trace open-loop through a running engine.

    A stream is a load run whose requests carry updates:
    :func:`~repro.loadgen.harness.run_load`'s open-loop replay, warm-up
    semantics and measured window, with each update applied — and its
    future awaited, an update that fails raises — just before the query it
    precedes, so the version every query is served at is a pure function
    of the trace.  ``warmup_events`` events from the head of the stream
    are served (queries awaited, updates applied) before the measured
    window opens.
    """
    events = trace.events
    warmup_events = max(0, min(int(warmup_events), len(events) - 1))
    base = events[warmup_events].arrival
    steps = [(event.arrival - base, event.nodes, event.delta)
             for event in events]
    warm_up, measured = steps[:warmup_events], steps[warmup_events:]
    requests = sum(1 for _, _, delta in measured if delta is None)
    if requests == 0:
        raise ValueError("the measured window needs at least one query")
    _warm_up(engine, warm_up)
    load = _measured_window(engine, lambda: _replay_open(engine, measured),
                            requests, trace.config.traffic.qps)
    return StreamRunResult(load=load, updates=trace.num_updates,
                           final_version=engine.session.graph.version)
