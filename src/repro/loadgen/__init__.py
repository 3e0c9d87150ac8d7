"""Traffic-replay load harness for the serving stack.

Three pieces, used together by ``repro loadtest`` and the benchmarks:

* :mod:`repro.loadgen.traffic` — deterministic production-shaped traffic
  (zipfian seed popularity, Poisson / fixed-rate open-loop arrivals).
* :mod:`repro.loadgen.harness` — open- and closed-loop replay against an
  :class:`~repro.serving.AsyncServingEngine`, with a warm-up phase,
  steady-state cache-delta accounting, per-request failure counting, and
  the latency / QPS / SLO summary of the measured window.
* :mod:`repro.loadgen.temporal` — dynamic-graph streams: deterministic
  interleavings of :class:`~repro.streaming.GraphDelta` updates and
  queries, replayed live for ``repro streamtest``.
"""

from repro.loadgen.harness import (
    LOADTEST_REQUIRED_METRICS,
    LoadRunResult,
    metrics_from_run,
    run_load,
    summarize_latencies,
)
from repro.loadgen.temporal import (
    UPDATE_KINDS,
    StreamRunResult,
    TemporalConfig,
    TemporalEvent,
    TemporalTrace,
    generate_temporal_trace,
    metrics_from_stream,
    run_stream,
)
from repro.loadgen.traffic import (
    ARRIVALS,
    PATTERNS,
    LoadTrace,
    TrafficConfig,
    generate_trace,
)

__all__ = [
    "ARRIVALS",
    "LOADTEST_REQUIRED_METRICS",
    "PATTERNS",
    "UPDATE_KINDS",
    "LoadRunResult",
    "LoadTrace",
    "StreamRunResult",
    "TemporalConfig",
    "TemporalEvent",
    "TemporalTrace",
    "TrafficConfig",
    "generate_temporal_trace",
    "generate_trace",
    "metrics_from_run",
    "metrics_from_stream",
    "run_load",
    "run_stream",
    "summarize_latencies",
]
