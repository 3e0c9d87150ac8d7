"""Atomic graph updates: the :class:`GraphDelta` batch format.

A delta bundles edge insertions, edge removals and feature overwrites into
one atomic unit: :meth:`~repro.graphs.graph.Graph.apply_delta` validates
the whole delta against the target graph before mutating anything, applies
every part, and bumps the graph's monotone version counter exactly once
(and the row version of each row in :meth:`GraphDelta.changed_rows`).
Streaming consumers (sessions, engines, the temporal load generator) only
ever exchange deltas — never raw array edits — so a serving stack can
define its consistency point as "between two deltas".

Semantics pinned here because every streaming test leans on them:

* ``added_edges`` are appended to the graph's edge list in the given
  order, with ``added_weights`` (default 1.0) as their weights.
* ``removed_edges`` name *directed* edges; removal drops **every**
  occurrence of each listed ``(source, target)`` pair.  Removing an edge
  the graph does not have is an error (the delta is rejected atomically).
* ``feature_nodes`` / ``features`` overwrite whole feature rows.  The
  node set must be duplicate-free — two new rows for one node in a single
  atomic delta would have no defined winner.
* A delta never adds or removes nodes: the feature matrix's shape is part
  of the session/artifact contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


def _as_edge_array(edges: Optional[np.ndarray], what: str) -> Optional[np.ndarray]:
    if edges is None:
        return None
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[0] != 2:
        raise ValueError(f"{what} must have shape (2, num_edges), "
                         f"got {edges.shape}")
    return None if edges.shape[1] == 0 else edges


@dataclass(frozen=True)
class GraphDelta:
    """One atomic batch of graph mutations (see the module docstring).

    Any field may be omitted; an empty delta is valid (it still bumps the
    version when applied, which gives tests a cheap "no-op update").
    """

    #: ``(2, E)`` directed edges to append, or ``None``.
    added_edges: Optional[np.ndarray] = None
    #: Per-added-edge weights; defaults to 1.0 for every added edge.
    added_weights: Optional[np.ndarray] = None
    #: ``(2, E)`` directed edges to remove (every occurrence), or ``None``.
    removed_edges: Optional[np.ndarray] = None
    #: Node ids whose feature rows ``features`` overwrites, or ``None``.
    feature_nodes: Optional[np.ndarray] = None
    #: ``(len(feature_nodes), num_features)`` replacement rows.
    features: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "added_edges",
                           _as_edge_array(self.added_edges, "added_edges"))
        object.__setattr__(self, "removed_edges",
                           _as_edge_array(self.removed_edges, "removed_edges"))
        if self.added_weights is not None:
            weights = np.asarray(self.added_weights, dtype=np.float32).reshape(-1)
            count = 0 if self.added_edges is None else self.added_edges.shape[1]
            if weights.shape[0] != count:
                raise ValueError(f"added_weights must have one entry per added "
                                 f"edge ({count}), got {weights.shape[0]}")
            object.__setattr__(self, "added_weights",
                               weights if count else None)
        if (self.feature_nodes is None) != (self.features is None):
            raise ValueError("feature_nodes and features must be given together")
        if self.feature_nodes is not None:
            nodes = np.asarray(self.feature_nodes, dtype=np.int64).reshape(-1)
            rows = np.asarray(self.features, dtype=np.float32)
            if rows.ndim != 2 or rows.shape[0] != nodes.shape[0]:
                raise ValueError(f"features must have shape "
                                 f"(len(feature_nodes), num_features), "
                                 f"got {rows.shape} for {nodes.shape[0]} nodes")
            if np.unique(nodes).shape[0] != nodes.shape[0]:
                raise ValueError("feature_nodes must be duplicate-free "
                                 "(one atomic delta has no defined winner)")
            if nodes.shape[0] == 0:
                nodes, rows = None, None  # type: ignore[assignment]
            object.__setattr__(self, "feature_nodes", nodes)
            object.__setattr__(self, "features", rows)

    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        return (self.added_edges is None and self.removed_edges is None
                and self.feature_nodes is None)

    def changed_rows(self) -> np.ndarray:
        """Nodes whose *adjacency row* content changes: sources of every
        added or removed edge (sorted, unique)."""
        sources = [edges[0] for edges in (self.added_edges, self.removed_edges)
                   if edges is not None]
        if not sources:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(sources))

    def touched_nodes(self) -> np.ndarray:
        """Every node the delta mentions: both endpoints of added/removed
        edges plus feature-updated nodes (sorted, unique).

        :meth:`~repro.graphs.graph.Graph.apply_delta` range-checks this set
        before mutating anything.  It is a superset of
        :meth:`changed_rows`, the only rows whose cache entries an update
        makes stale.
        """
        parts = [edges.reshape(-1) for edges
                 in (self.added_edges, self.removed_edges) if edges is not None]
        if self.feature_nodes is not None:
            parts.append(self.feature_nodes)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def __repr__(self) -> str:
        added = 0 if self.added_edges is None else self.added_edges.shape[1]
        removed = 0 if self.removed_edges is None else self.removed_edges.shape[1]
        feats = 0 if self.feature_nodes is None else self.feature_nodes.shape[0]
        return (f"GraphDelta(added={added}, removed={removed}, "
                f"feature_rows={feats})")
