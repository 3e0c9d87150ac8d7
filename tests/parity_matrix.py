"""The unified fanout=∞ parity matrix.

One parametrized engine for the invariant that underpins every serving
claim: **block execution at unlimited fanout is bit-identical to full-graph
execution** — across

* all six conv families (gcn / sage / gin / gat / tag / transformer),
* the three numeric modes (float forward, QAT fake-quantized forward,
  integer artifact serving),
* the three execution paths (direct model call, cached block serving,
  uncached block serving), and
* head counts 1 / 2 / 4 where the family has a head axis.

``TestShardParityMatrix`` extends the contract to the multi-process tier:
sharded serving (shards ∈ {2, 4} × both partition strategies) is bitwise
equal to the single-process block session for every family, on both the
integer and the float-export execution paths — with requests built to
contain seeds whose receptive fields provably cross shard boundaries, so
the halo protocol is exercised in every cell.

Before this matrix existed the same assert was re-implemented ad hoc in
``tests/gnn/test_attention_blocks.py``, ``tests/quant/test_attention_
qmodules.py``, ``tests/serving/test_attention_serving.py`` and
``tests/cache/test_parity.py`` — those suites now keep only their
mode-specific behaviour and point here for the parity contract, so a new
conv family adds matrix *rows*, not duplicated test code.

Model/artifact builders are the memoised ``parity_*`` fixtures in
``tests/conftest.py``.  The CI ``cache-serving`` job runs this file as its
own named step so a parity break is attributable at a glance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn.models import total_hops
from repro.graphs.sampling import NeighborSampler
from repro.kernels import available_backends
from repro.serving import BlockSession, FullGraphSession
from repro.tensor.tensor import no_grad

#: Families with a head axis get one row per head count; the matrix keeps
#: ``heads`` in every case id so failures name their cell exactly.
HEADED_FAMILIES = ("gat", "transformer")
MATRIX_HEADS = (1, 2, 4)
PARITY_CASES = [(family, heads)
                for family in ("gcn", "sage", "gin", "tag", "gat", "transformer")
                for heads in (MATRIX_HEADS if family in HEADED_FAMILIES
                              else (1,))]
CASE_IDS = [f"{family}-h{heads}" for family, heads in PARITY_CASES]


def _unlimited_batch(graph, num_hops: int):
    """One fanout=∞ batch covering every node, in natural order."""
    sampler = NeighborSampler(graph, None, batch_size=graph.num_nodes,
                              num_layers=num_hops,
                              seed_nodes=np.arange(graph.num_nodes),
                              shuffle=False, seed=0)
    return sampler.sample(np.arange(graph.num_nodes, dtype=np.int64))


@pytest.mark.parametrize("family,heads", PARITY_CASES, ids=CASE_IDS)
class TestParityMatrix:
    # ------------------------------------------------------------------ #
    # float × direct
    # ------------------------------------------------------------------ #
    def test_float_direct(self, parity_graph, parity_float_model, family,
                          heads):
        model = parity_float_model(family, heads)
        batch = _unlimited_batch(parity_graph, total_hops(model.convs))
        with no_grad():
            full = model(parity_graph).data
            block = model(batch).data
        np.testing.assert_array_equal(block, full)

    # ------------------------------------------------------------------ #
    # QAT × direct
    # ------------------------------------------------------------------ #
    def test_qat_direct(self, parity_graph, parity_quant_model, family, heads):
        model = parity_quant_model(family, heads)
        batch = _unlimited_batch(parity_graph, total_hops(model.convs))
        with no_grad():
            full = model(parity_graph).data
            block = model(batch).data
        np.testing.assert_array_equal(block, full)

    # ------------------------------------------------------------------ #
    # integer × served (and the BitOPs half of the contract)
    # ------------------------------------------------------------------ #
    def test_integer_served(self, parity_graph, parity_artifact, family,
                            heads):
        artifact = parity_artifact(family, heads)
        full_session = FullGraphSession(artifact, parity_graph)
        full = full_session.run()
        block = BlockSession(artifact, parity_graph, fanouts=None,
                             batch_size=parity_graph.num_nodes).run()
        np.testing.assert_array_equal(block.logits, full.logits)
        # fanout=∞ block BitOPs == full-graph BitOPs, executed and static
        assert block.bit_operations.total_bit_operations \
            == full.bit_operations.total_bit_operations
        assert full_session.bit_operations().total_bit_operations \
            == full.bit_operations.total_bit_operations

    # ------------------------------------------------------------------ #
    # integer × cached (cached == uncached, bounded and unlimited fanout)
    # ------------------------------------------------------------------ #
    def test_integer_cached(self, parity_graph, parity_artifact, family,
                            heads):
        artifact = parity_artifact(family, heads)
        seeds = np.arange(0, parity_graph.num_nodes, 2, dtype=np.int64)
        for fanout in (3, None):
            plain = BlockSession(artifact, parity_graph, fanouts=fanout,
                                 batch_size=32, seed=7)
            cached = BlockSession(artifact, parity_graph, fanouts=fanout,
                                  batch_size=32, seed=7, cache_size=65536)
            np.testing.assert_array_equal(cached.predict(seeds),
                                          plain.predict(seeds))
            cold = cached.cache_stats()
            assert cold.misses > 0
            # a warm repeat is answered from the cache, still bit-identical
            np.testing.assert_array_equal(cached.predict(seeds),
                                          plain.predict(seeds))
            warm = cached.cache_stats()
            assert warm.hits > cold.hits and warm.misses == cold.misses

    # ------------------------------------------------------------------ #
    # integer × kernel backend (every registered backend == reference)
    # ------------------------------------------------------------------ #
    def test_integer_backends(self, parity_graph, parity_artifact, family,
                              heads):
        """Every registered kernel backend serves bit-identical logits —
        full graph, unlimited-fanout blocks, and bounded-fanout blocks."""
        artifact = parity_artifact(family, heads)
        seeds = np.arange(0, parity_graph.num_nodes, 2, dtype=np.int64)
        reference_full = FullGraphSession(artifact, parity_graph,
                                          backend="numpy").run().logits
        reference_block = BlockSession(artifact, parity_graph, fanouts=3,
                                       batch_size=32, seed=7,
                                       backend="numpy").predict(seeds)
        for name in available_backends():
            full = FullGraphSession(artifact, parity_graph, backend=name)
            assert full.backend_name == name
            np.testing.assert_array_equal(
                full.run().logits, reference_full,
                err_msg=f"backend {name}: full-graph logits diverge")
            unlimited = BlockSession(artifact, parity_graph, fanouts=None,
                                     batch_size=parity_graph.num_nodes,
                                     backend=name)
            np.testing.assert_array_equal(
                unlimited.run().logits, reference_full,
                err_msg=f"backend {name}: fanout=∞ block logits diverge")
            bounded = BlockSession(artifact, parity_graph, fanouts=3,
                                   batch_size=32, seed=7, backend=name)
            np.testing.assert_array_equal(
                bounded.predict(seeds), reference_block,
                err_msg=f"backend {name}: bounded-fanout logits diverge")


# --------------------------------------------------------------------------- #
# BitOPs: one accountant — float x 32 == all-FP32 Quant, model == serving
# --------------------------------------------------------------------------- #
#: Hidden width and TAG depth of the BitOPs cells (mirrors the conftest
#: parity builders; the float TAG twin is built here because
#: ``build_node_model`` has no ``hops`` argument).
BITOPS_HIDDEN = 16
BITOPS_TAG_HOPS = 2
BITOPS_CASES = [(family, heads) for family, heads in PARITY_CASES if heads != 2]
BITOPS_IDS = [f"{family}-h{heads}" for family, heads in BITOPS_CASES]


def _records(counter):
    return [(record.name, record.operations, record.bits)
            for record in counter.records]


@pytest.mark.parametrize("family,heads", BITOPS_CASES, ids=BITOPS_IDS)
class TestBitOpsMatrix:
    """The paper's cost metric has one definition: the FP32 row, the
    quantized rows and the serving reports are the same function of the
    layer shape, the bit-widths and the operator actually applied."""

    def test_float_equals_all_fp32_quant(self, parity_graph, parity_float_model,
                                         family, heads):
        from repro.quant.bitops import FP32_BITS
        from repro.quant.qmodules import QuantNodeClassifier

        if family == "tag":
            model = QuantNodeClassifier.from_assignment(
                [(parity_graph.num_features, BITOPS_HIDDEN),
                 (BITOPS_HIDDEN, parity_graph.num_classes)], "tag", {},
                hops=BITOPS_TAG_HOPS)
        else:
            model = parity_float_model(family, heads)
        # the FP32 model is the family at an empty assignment: every record
        # of the paper's FP32 row is at 32 bits
        counter = model.bit_operations(parity_graph)
        assert counter.records
        assert {record.bits for record in counter.records} == {FP32_BITS}

    def test_model_equals_serving(self, parity_graph, family, heads):
        """Mixed widths (8-bit input, 4-bit everything else) exercise every
        ``max(operand widths)`` rule; records must agree by name, operation
        count and width between the QAT model, the session's static count
        and an executed pass."""
        from repro.core.search_space import conv_component_names
        from repro.quant.qmodules import QuantNodeClassifier
        from repro.serving import QuantizedArtifact

        names = conv_component_names(family, 2, hops=BITOPS_TAG_HOPS)
        assignment = {name: 8 if name.endswith(".input") else 4
                      for name in names}
        model = QuantNodeClassifier.from_assignment(
            [(parity_graph.num_features, BITOPS_HIDDEN),
             (BITOPS_HIDDEN, parity_graph.num_classes)], family, assignment,
            dropout=0.0, hops=BITOPS_TAG_HOPS, heads=heads,
            rng=np.random.default_rng(0))
        with no_grad():
            model(parity_graph)  # one training-mode pass calibrates the observers
        model.eval()
        session = FullGraphSession(QuantizedArtifact.from_model(model),
                                   parity_graph)
        expected = _records(model.bit_operations(parity_graph))
        assert _records(session.bit_operations()) == expected
        assert _records(session.run().bit_operations) == expected
        block = BlockSession(session.artifact, parity_graph, fanouts=None,
                             batch_size=parity_graph.num_nodes).run()
        assert _records(block.bit_operations) == expected


# --------------------------------------------------------------------------- #
# sharded serving == single-process serving, bit for bit
# --------------------------------------------------------------------------- #
#: Every shard configuration of the matrix: counts × partition strategies.
SHARD_CONFIGS = [(2, "hash"), (2, "degree"), (4, "hash"), (4, "degree")]
SHARD_IDS = [f"s{shards}-{strategy}" for shards, strategy in SHARD_CONFIGS]
#: Head counts of the shard axis (4-head rows add little once 2 passes).
SHARD_PARITY_CASES = [(family, heads) for family, heads in PARITY_CASES
                      if heads <= 2]
SHARD_CASE_IDS = [f"{family}-h{heads}" for family, heads in SHARD_PARITY_CASES]


def _halo_request(graph, assignment) -> np.ndarray:
    """A request guaranteed to cross shard boundaries: every-third node
    plus the first few seeds whose receptive field provably spans shards."""
    from repro.graphs.partition import halo_seeds

    crossing = halo_seeds(graph, assignment)
    assert crossing.size > 0, "partition produced no halo seeds"
    return np.concatenate([crossing[:8],
                           np.arange(0, graph.num_nodes, 3, dtype=np.int64)])


@pytest.mark.parametrize("shards,strategy", SHARD_CONFIGS, ids=SHARD_IDS)
class TestShardParityMatrix:
    def _assert_sharded_parity(self, graph, artifact, shards, strategy):
        from repro.graphs.partition import partition_graph
        from repro.sharding import ShardedBlockSession

        assignment = partition_graph(graph, shards, strategy=strategy)
        request = _halo_request(graph, assignment)
        reference = BlockSession(artifact, graph, fanouts=3, batch_size=32,
                                 seed=7).run(request)
        with ShardedBlockSession(artifact, graph, shards=shards,
                                 partition=strategy, fanouts=3,
                                 batch_size=32, seed=7) as sharded:
            run = sharded.run(request)
        np.testing.assert_array_equal(run.logits, reference.logits)
        assert run.num_edges == reference.num_edges

    @pytest.mark.parametrize("family,heads", SHARD_PARITY_CASES,
                             ids=SHARD_CASE_IDS)
    def test_integer_sharded(self, parity_graph, parity_artifact, family,
                             heads, shards, strategy):
        self._assert_sharded_parity(parity_graph, parity_artifact(family, heads),
                                    shards, strategy)

    @pytest.mark.parametrize("family,heads", SHARD_PARITY_CASES,
                             ids=SHARD_CASE_IDS)
    def test_float_export_sharded(self, parity_graph, parity_float_artifact,
                                  family, heads, shards, strategy):
        self._assert_sharded_parity(parity_graph,
                                    parity_float_artifact(family, heads),
                                    shards, strategy)

    def test_unlimited_fanout_sharded(self, parity_graph, parity_artifact,
                                      shards, strategy):
        """fanout=∞ spot check: the sharded session also matches the
        full-receptive-field block session (gcn cell)."""
        from repro.sharding import ShardedBlockSession

        artifact = parity_artifact("gcn", 1)
        seeds = np.arange(parity_graph.num_nodes, dtype=np.int64)
        reference = BlockSession(artifact, parity_graph, fanouts=None,
                                 batch_size=48).run(seeds)
        with ShardedBlockSession(artifact, parity_graph, shards=shards,
                                 partition=strategy, fanouts=None,
                                 batch_size=48) as sharded:
            run = sharded.run(seeds)
        np.testing.assert_array_equal(run.logits, reference.logits)

    @pytest.mark.parametrize("fanouts", [2, 3, None, [2, None]],
                             ids=["f2", "f3", "finf", "f2-finf"])
    def test_cached_sharded(self, parity_graph, parity_artifact, shards,
                            strategy, fanouts):
        """Per-shard caches on: every reply of a repeating, overlapping
        request sequence equals the *uncached* single-process session.
        Bounded fanouts store short halo rows raw and the others capped;
        ``[2, None]`` fetches full halo rows at the seed hop and must cap
        them locally when the next hop asks again with fanout 2."""
        from repro.graphs.partition import partition_graph
        from repro.sharding import ShardedBlockSession

        artifact = parity_artifact("gcn", 1)
        assignment = partition_graph(parity_graph, shards, strategy=strategy)
        first = _halo_request(parity_graph, assignment)
        second = np.arange(1, parity_graph.num_nodes, 2, dtype=np.int64)
        reference = BlockSession(artifact, parity_graph, fanouts=fanouts,
                                 batch_size=32, seed=7)
        with ShardedBlockSession(artifact, parity_graph, shards=shards,
                                 partition=strategy, fanouts=fanouts,
                                 batch_size=32, seed=7,
                                 cache_size=65536) as sharded:
            for request in (first, second, first[::-1], first, second):
                np.testing.assert_array_equal(
                    sharded.run(request).logits,
                    reference.run(request).logits)
            assert sharded.cache_stats().hits > 0


# --------------------------------------------------------------------------- #
# streaming serving == fresh static serving, at every version, bit for bit
# --------------------------------------------------------------------------- #
def _scripted_deltas(graph, seed=11):
    """Three deltas — add, feature overwrite, remove — valid in sequence."""
    from repro.streaming import GraphDelta

    rng = np.random.default_rng(seed)
    added = rng.integers(0, graph.num_nodes, size=(2, 4))
    weights = rng.random(4).astype(np.float32) + np.float32(0.5)
    feature_nodes = rng.choice(graph.num_nodes, size=3,
                               replace=False).astype(np.int64)
    rows = rng.random((3, graph.num_features)).astype(np.float32)
    # remove two of the edges the first delta added (unique pairs only)
    pairs = {(int(u), int(v)) for u, v in zip(added[0], added[1])}
    removed = np.asarray(sorted(pairs)[:2], dtype=np.int64).T
    return [GraphDelta(added_edges=added, added_weights=weights),
            GraphDelta(feature_nodes=feature_nodes, features=rows),
            GraphDelta(removed_edges=removed)]


class TestStreamingParityMatrix:
    """The streaming tier of the house invariant: after any update
    sequence, served logits are bitwise identical to a fresh session on
    the equivalent static graph — cached and uncached, at every
    intermediate version.  Updates change *when* the graph mutates, never
    *what* is served."""

    @pytest.mark.parametrize("family,heads", PARITY_CASES, ids=CASE_IDS)
    def test_streamed_equals_fresh_static(self, parity_graph, parity_artifact,
                                          family, heads):
        artifact = parity_artifact(family, heads)
        seeds = np.arange(0, parity_graph.num_nodes, 2, dtype=np.int64)
        for fanout in (3, None):
            cached = BlockSession(artifact, parity_graph.copy(),
                                  fanouts=fanout, batch_size=32, seed=7,
                                  cache_size=65536)
            uncached = BlockSession(artifact, parity_graph.copy(),
                                    fanouts=fanout, batch_size=32, seed=7)
            cached.predict(seeds)  # warm the cache pre-update
            for version, delta in enumerate(_scripted_deltas(parity_graph),
                                            start=1):
                assert cached.apply_update(delta) == version
                assert uncached.apply_update(delta) == version
                fresh = BlockSession(artifact, cached.graph.copy(),
                                     fanouts=fanout, batch_size=32, seed=7)
                reference = fresh.predict(seeds)
                cell = f"{family}-h{heads} fanout={fanout} v{version}"
                np.testing.assert_array_equal(
                    uncached.predict(seeds), reference,
                    err_msg=f"{cell}: streamed uncached diverges")
                np.testing.assert_array_equal(
                    cached.predict(seeds), reference,
                    err_msg=f"{cell}: streamed cached (cold) diverges")
                np.testing.assert_array_equal(
                    cached.predict(seeds), reference,
                    err_msg=f"{cell}: streamed cached (warm) diverges")

    def test_full_graph_session_streams(self, parity_graph, parity_artifact):
        """The full-graph tier holds the same contract (gcn cell)."""
        artifact = parity_artifact("gcn", 1)
        streamed = FullGraphSession(artifact, parity_graph.copy())
        for version, delta in enumerate(_scripted_deltas(parity_graph),
                                        start=1):
            assert streamed.apply_update(delta) == version
            fresh = FullGraphSession(artifact, streamed.graph.copy())
            np.testing.assert_array_equal(streamed.run().logits,
                                          fresh.run().logits)

    def test_scoped_invalidation_keeps_cache_warm(self, parity_graph,
                                                  parity_artifact):
        """The perf contract behind scoped invalidation: an update far from
        most receptive fields must leave warm row entries in place, so a
        repeat of the pre-update working set still hits (gcn cell)."""
        from repro.streaming import GraphDelta

        artifact = parity_artifact("gcn", 1)
        session = BlockSession(artifact, parity_graph.copy(), fanouts=None,
                               batch_size=parity_graph.num_nodes,
                               cache_size=65536)
        seeds = np.arange(parity_graph.num_nodes, dtype=np.int64)
        session.predict(seeds)                        # fill
        session.predict(seeds)                        # prove it hits warm
        warm_before = session.cache_stats().hits
        assert warm_before > 0
        node = int(parity_graph.num_nodes - 1)
        session.apply_update(GraphDelta(
            feature_nodes=np.asarray([node]),
            features=np.zeros((1, parity_graph.num_features),
                              dtype=np.float32)))
        session.predict(seeds)
        delta_hits = session.cache_stats().hits - warm_before
        # a naive whole-cache flush would make this 0: every row outside
        # the touched region must still be answered from cache
        assert delta_hits > 0
