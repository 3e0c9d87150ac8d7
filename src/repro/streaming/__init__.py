"""Streaming / dynamic-graph serving support.

Three pieces, consumed by the graph core, the block cache and the serving
engines:

* :class:`GraphDelta` — atomic batches of edge insertions/removals and
  feature overwrites, applied via
  :meth:`~repro.graphs.graph.Graph.apply_delta` under a monotone graph
  version counter.
* :class:`RegionVersions` / :func:`affected_region` — per-node row and
  region version counters scoped to the receptive fields an update
  touches, stamped into every :class:`~repro.cache.BlockCache` key so
  stale entries are unreachable by construction.
* The serving wiring lives with the consumers:
  ``BlockSession.apply_update`` / ``ServingEngine.apply_update`` /
  ``AsyncServingEngine.submit_update`` apply deltas at flush boundaries
  (one flush serves entirely at one version), and
  :mod:`repro.loadgen.temporal` replays interleaved update/query traces.

The defining invariant (asserted in ``tests/parity_matrix.py``): after any
update sequence, served logits are bitwise identical to a fresh session
built on the equivalent static graph — cached == uncached — at every
intermediate version.
"""

from repro.streaming.delta import GraphDelta
from repro.streaming.versions import RegionVersions, affected_region

__all__ = [
    "GraphDelta",
    "RegionVersions",
    "affected_region",
]
