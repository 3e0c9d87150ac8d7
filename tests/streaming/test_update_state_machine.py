"""Stateful property test: a cached, streamed session == a fresh static one.

Hypothesis drives one cached :class:`~repro.serving.BlockSession` at
fanout 3 through random valid deltas (edge insertions, removals of edges
the graph has, feature overwrites) interleaved with new, repeated and
overlapping queries.  After every query the served logits must equal,
bitwise, those of an uncached session built fresh on ``graph.copy()`` —
whatever the cache kept warm across the updates before it.  Two
invariants hold after every step: the sampler's degree vectors are
exactly a fresh derivation's, and every cached key carries the version
it would be built with now — no stale entry outlives the update that
made it unreachable.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

from repro.graphs.sampling import degree_state
from repro.serving import BlockSession
from repro.streaming import GraphDelta

FANOUT = 3
SESSION = dict(fanouts=FANOUT, batch_size=16, seed=7)
#: Queries draw from a small pool so they overlap and the cache stays warm.
POOL = 40


class CachedStreamMachine(RuleBasedStateMachine):
    queries = Bundle("queries")

    def __init__(self, artifact, graph):
        super().__init__()
        self.artifact = artifact
        self.session = BlockSession(artifact, graph.copy(), cache_size=65536,
                                    **SESSION)
        self.version = 0

    @property
    def graph(self):
        return self.session.graph

    def _apply(self, delta):
        self.version += 1
        assert self.session.apply_update(delta) == self.version

    def _check(self, seeds):
        fresh = BlockSession(self.artifact, self.graph.copy(), **SESSION)
        served = self.session.predict(seeds)
        np.testing.assert_array_equal(served, fresh.predict(seeds))
        return seeds

    @rule(edges=st.lists(st.tuples(st.integers(0, POOL - 1),
                                   st.integers(0, POOL - 1)),
                         min_size=1, max_size=4),
          salt=st.integers(0, 2**16))
    def add_edges(self, edges, salt):
        weights = np.random.default_rng(salt).random(len(edges)) + 0.5
        self._apply(GraphDelta(added_edges=np.asarray(edges).T,
                               added_weights=weights.astype(np.float32)))

    @precondition(lambda self: self.graph.num_edges > 0)
    @rule(pick=st.integers(0, 2**31))
    def remove_edge(self, pick):
        edge_index = self.graph.edge_index
        column = edge_index[:, pick % edge_index.shape[1]]
        self._apply(GraphDelta(removed_edges=column.reshape(2, 1)))

    @rule(nodes=st.sets(st.integers(0, POOL - 1), min_size=1, max_size=3),
          salt=st.integers(0, 2**16))
    def overwrite_features(self, nodes, salt):
        rows = np.random.default_rng(salt).standard_normal(
            (len(nodes), self.graph.num_features)).astype(np.float32)
        self._apply(GraphDelta(feature_nodes=np.asarray(sorted(nodes)),
                               features=rows))

    @rule(target=queries,
          seeds=st.lists(st.integers(0, POOL - 1), min_size=1, max_size=12,
                         unique=True))
    def query(self, seeds):
        return self._check(np.asarray(seeds, dtype=np.int64))

    @rule(seeds=queries)
    def repeat_query(self, seeds):
        self._check(seeds)

    @invariant()
    def degree_vectors_match_a_fresh_derivation(self):
        _, row_weight, inv_sqrt = degree_state(self.graph.copy())
        sampler = self.session.sampler
        assert sampler._row_weight.tobytes() == row_weight.tobytes()
        assert sampler._inv_sqrt.tobytes() == inv_sqrt.tobytes()

    @invariant()
    def every_cached_key_carries_the_current_version(self):
        row_version = self.graph.row_version
        for key in self.session.cache._lru.keys():
            if key[0] == "bat":
                assert key[4] == self.graph.version, key
            else:  # ("row", node, version) / ("blk", node, ..., version)
                assert key[-1] == row_version[key[1]], key


@pytest.mark.parametrize("family", ["gcn", "sage", "tag"])
def test_cached_stream_equals_fresh_static(parity_graph, parity_artifact,
                                           family):
    """``gcn`` and ``sage`` renormalise by degree differently; ``tag``
    stacks hops inside a layer, so its receptive field is the deepest one
    a changed row can reach."""
    artifact = parity_artifact(family, 1)
    run_state_machine_as_test(
        lambda: CachedStreamMachine(artifact, parity_graph),
        settings=settings(max_examples=50, stateful_step_count=25,
                          deadline=None, derandomize=True))
