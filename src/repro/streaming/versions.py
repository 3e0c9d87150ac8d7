"""Region-scoped version counters: the streaming invalidation contract.

The rng-epoch contract from the block cache ("a key carries the epoch it
was sampled under; advancing the epoch makes old keys unreachable")
generalises here from one global counter to **two per-node counters**:

* ``row version`` — bumped only for nodes whose adjacency *row content*
  changed (the sources of added/removed edges).  Cached raw and
  fanout-capped rows are keyed by it: a row entry stays valid across
  updates that never touched that row.
* ``region version`` — bumped for every node within ``num_hops`` of an
  update (over *reverse* adjacency, i.e. every seed whose receptive field
  can reach a touched node).  Whole-batch cache entries are keyed by the
  region-version vector of their seed list, because a batch embeds
  feature rows and degree terms of its entire receptive field.

Versioned keys make stale entries unreachable by construction — eviction
(:meth:`~repro.cache.BlockCache.invalidate_nodes`) is a memory/accounting
optimisation on top, never a correctness requirement.  That is what keeps
the house bit-identity invariant under streaming: a cache can still only
change *when* a row is computed, never *what* it contains.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def affected_region(graph: Any, touched: np.ndarray,
                    num_hops: int) -> np.ndarray:
    """Nodes whose ``num_hops`` receptive field reaches a touched node.

    A seed ``s`` samples the adjacency row of every node at distance
    ``< num_hops`` from it (following out-edges), and reads features and
    degree terms of nodes at distance ``<= num_hops``.  The seeds whose
    served logits an update *can* influence are therefore the nodes that
    reach the touched set within ``num_hops`` forward steps — computed
    here as a BFS from the touched set over **reverse** adjacency, on the
    post-update graph.

    Post-update reverse reachability is sound for the pre-update cache
    too: a path crossing an added/removed edge ``(u, v)`` has a strictly
    shorter prefix ending at ``u``, and ``u`` is in the touched set.

    Returns the sorted union of the touched set and its reverse
    ``num_hops`` neighbourhood.
    """
    touched = np.unique(np.asarray(touched, dtype=np.int64).reshape(-1))
    if touched.size == 0:
        return touched
    if touched.min() < 0 or touched.max() >= graph.num_nodes:
        raise ValueError(f"touched node ids must lie in "
                         f"[0, {graph.num_nodes}), got range "
                         f"[{touched.min()}, {touched.max()}]")
    affected = np.zeros(graph.num_nodes, dtype=bool)
    affected[touched] = True
    if num_hops <= 0:
        return touched
    # One forward step away from reaching the region are the rows holding
    # an entry that points into it: a flag lookup per entry finds them in
    # the forward CSR, so no reverse adjacency is built per update.
    forward = graph.adjacency(add_self_loops=False).csr
    for _ in range(int(num_hops)):
        entries = np.flatnonzero(affected[forward.indices])
        affected[np.searchsorted(forward.indptr, entries,
                                 side="right") - 1] = True
    return np.flatnonzero(affected)


class RegionVersions:
    """Per-node row/region version counters for one streamed graph.

    Owned by the serving session (one tracker per
    :class:`~repro.serving.session.BlockSession`); the sampler reads it to
    stamp cache keys, :meth:`bump` is called once per applied delta.  Not
    locked: updates are applied at flush boundaries (the serving stack's
    consistency point), never concurrently with sampling.
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = int(num_nodes)
        self._row = np.zeros(self.num_nodes, dtype=np.int64)
        self._region = np.zeros(self.num_nodes, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def row_versions(self, nodes: np.ndarray) -> np.ndarray:
        """Row version of each node (stamps raw/capped row cache keys)."""
        return self._row[np.asarray(nodes, dtype=np.int64)]

    def region_tag(self, seeds: np.ndarray) -> bytes:
        """Region-version vector of a seed list, as a hashable key part.

        The full vector — not its max — because two different version
        vectors can share a maximum while disagreeing on which seed's
        region moved.
        """
        return self._region[np.asarray(seeds, dtype=np.int64)].tobytes()

    def bump(self, changed_rows: np.ndarray,
             region_nodes: np.ndarray) -> None:
        """Advance versions after one applied delta."""
        self._row[np.asarray(changed_rows, dtype=np.int64)] += 1
        self._region[np.asarray(region_nodes, dtype=np.int64)] += 1

    def __repr__(self) -> str:
        return (f"RegionVersions(nodes={self.num_nodes}, "
                f"bumped_rows={int((self._row > 0).sum())}, "
                f"bumped_regions={int((self._region > 0).sum())})")
