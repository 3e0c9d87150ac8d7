"""Sharded multi-process serving: partitioned workers behind a router.

Public surface:

* :class:`ShardedBlockSession` — drop-in block session running on N worker
  processes, bit-identical to the single-process session.
* :class:`ShardRouter` — the process fleet: chunk dispatch, halo relay,
  deadline enforcement, crash detection and worker restart.
* The worker-side pieces (:class:`ShardWorkerSession`, :class:`ShardSampler`,
  :func:`restricted_graph`, :class:`WorkerConfig`) for tests and tools.

Partitioning itself lives in :mod:`repro.graphs.partition`.
"""

from repro.sharding.router import (ShardRouter, ShardTimeoutError,
                                   ShardWorkerDied, ShardWorkerError,
                                   pick_start_method)
from repro.sharding.session import ShardedBlockSession
from repro.sharding.worker import (ShardHaloError, ShardSampler,
                                   ShardWorkerSession, WorkerConfig,
                                   restricted_graph, serve_rows, worker_main)

__all__ = [
    "ShardRouter",
    "ShardTimeoutError",
    "ShardWorkerDied",
    "ShardWorkerError",
    "ShardedBlockSession",
    "ShardHaloError",
    "ShardSampler",
    "ShardWorkerSession",
    "WorkerConfig",
    "pick_start_method",
    "restricted_graph",
    "serve_rows",
    "worker_main",
]
