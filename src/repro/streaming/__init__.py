"""Streaming / dynamic-graph serving support.

The atomic update unit lives here; everything else rides on the consumers:

* :class:`GraphDelta` — atomic batches of edge insertions/removals and
  feature overwrites, applied via
  :meth:`~repro.graphs.graph.Graph.apply_delta`, which advances the graph's
  monotone ``version`` and the ``row_version`` of every adjacency row the
  delta changed.  Block-cache keys carry those versions (row entries the
  row version, whole batches the graph version), so an update strands
  exactly the entries it made stale and every other row stays warm.
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

__all__ = [
    "GraphDelta",
]
