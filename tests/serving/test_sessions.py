"""Parity and memory-boundedness tests for the inference sessions.

The guarantees pinned down here are the serving analogue of Theorem 1:

* full-graph integer serving matches the fake-quantized QAT model to
  float32 round-off, for every supported conv family;
* block serving with unlimited fanout matches full-graph serving exactly
  (the sampled operators are exact row slices of the full operators);
* a saved-then-loaded artifact serves bit-identically to the in-memory one;
* block serving touches only the request's receptive field and never
  materialises the full (normalised) adjacency.
"""

import numpy as np
import pytest

from repro.serving import BlockSession, FullGraphSession, QuantizedArtifact

CONV_TYPES = ("gcn", "sage", "gin")


@pytest.fixture(scope="module")
def artifacts(served_models):
    return {conv: QuantizedArtifact.from_model(model)
            for conv, model in served_models.items()}


class TestFullGraphParity:
    @pytest.mark.parametrize("conv", CONV_TYPES)
    def test_matches_fake_quantized_model(self, artifacts, served_models,
                                          conv, small_cora):
        """Integer serving reproduces the QAT logits (Theorem 1 parity)."""
        session = FullGraphSession(artifacts[conv], small_cora)
        integer_logits = session.predict()
        fake_quant_logits = served_models[conv](small_cora).data
        np.testing.assert_allclose(integer_logits, fake_quant_logits,
                                   rtol=1e-3, atol=1e-3)

    def test_mixed_per_layer_adjacency_bits(self, small_cora):
        """Layers with different adjacency grids must not share a cached
        quantized operator (regression: cache keyed by adjacency id only)."""
        from repro.quant.qmodules import QuantNodeClassifier, \
            gcn_component_names, uniform_assignment
        from repro.training.trainer import train_node_classifier

        assignment = uniform_assignment(gcn_component_names(2), 4)
        assignment["conv1.adjacency"] = 8
        model = QuantNodeClassifier.from_assignment(
            [(small_cora.num_features, 8), (8, small_cora.num_classes)], "gcn",
            assignment, dropout=0.0, rng=np.random.default_rng(1))
        train_node_classifier(model, small_cora, epochs=10, lr=0.02)
        model.eval()
        session = FullGraphSession(QuantizedArtifact.from_model(model),
                                   small_cora)
        np.testing.assert_allclose(session.predict(), model(small_cora).data,
                                   rtol=2e-3, atol=2e-3)

    def test_node_subset_is_a_row_slice(self, artifacts, small_cora):
        session = FullGraphSession(artifacts["gcn"], small_cora)
        full = session.predict()
        nodes = np.asarray([3, 0, 11])
        np.testing.assert_array_equal(session.predict(nodes), full[nodes])

    def test_predict_classes_matches_argmax(self, artifacts, small_cora):
        session = FullGraphSession(artifacts["sage"], small_cora)
        np.testing.assert_array_equal(session.predict_classes(),
                                      session.predict().argmax(axis=1))

    def test_run_reports_work(self, artifacts, small_cora):
        run = FullGraphSession(artifacts["gcn"], small_cora).run()
        assert run.num_seeds == small_cora.num_nodes
        assert run.num_input_nodes == small_cora.num_nodes
        assert run.num_edges > 0
        assert run.bit_operations.total_bit_operations > 0
        assert run.seconds >= 0.0

    @pytest.mark.parametrize("conv", CONV_TYPES)
    def test_arithmetic_bitops_match_executed_counter(self, artifacts, conv,
                                                      small_cora):
        """bit_operations() derives the same counts a real pass records."""
        session = FullGraphSession(artifacts[conv], small_cora)
        assert session.bit_operations().per_function() \
            == session.run().bit_operations.per_function()


class TestBlockParity:
    @pytest.mark.parametrize("conv", CONV_TYPES)
    def test_unlimited_fanout_matches_full_graph(self, artifacts, conv,
                                                 small_cora):
        """Block serving at fanout=∞ equals the full-graph engine."""
        full = FullGraphSession(artifacts[conv], small_cora).predict()
        block = BlockSession(artifacts[conv], small_cora, fanouts=None,
                             batch_size=32)
        seeds = np.arange(small_cora.num_nodes, dtype=np.int64)[::3]
        np.testing.assert_allclose(block.predict(seeds), full[seeds],
                                   rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("conv", CONV_TYPES)
    def test_saved_artifact_serves_bit_identically(self, artifacts, conv,
                                                   small_cora, tmp_path):
        """save() -> load() -> serve is exactly the in-memory serving path."""
        artifacts[conv].save(tmp_path / "artifact.npz")
        loaded = QuantizedArtifact.load(tmp_path / "artifact.npz")
        seeds = np.arange(0, small_cora.num_nodes, 5, dtype=np.int64)
        before = BlockSession(artifacts[conv], small_cora,
                              fanouts=None).predict(seeds)
        after = BlockSession(loaded, small_cora, fanouts=None).predict(seeds)
        np.testing.assert_array_equal(after, before)

    def test_fanout_capped_outputs_are_finite(self, artifacts, small_cora):
        session = BlockSession(artifacts["gcn"], small_cora, fanouts=2,
                               batch_size=8, seed=3)
        logits = session.predict(np.asarray([0, 5, 9]))
        assert logits.shape == (3, small_cora.num_classes)
        assert np.isfinite(logits).all()

    def test_empty_request(self, artifacts, small_cora):
        run = BlockSession(artifacts["gcn"], small_cora).run(np.asarray([], dtype=int))
        assert run.logits.shape == (0, small_cora.num_classes)
        assert run.num_edges == 0


class TestSelfEdgeGraph:
    """Where the block operator builder merges a graph self-edge with its
    self loop, and a row is empty: the served logits match the reference
    kernels on an uncached session, and the full graph at fanout=∞."""

    @pytest.mark.parametrize("fanout", [None, 2])
    @pytest.mark.parametrize("conv", ("gcn", "sage"))
    def test_served_logits_match_reference(self, self_edge_artifacts,
                                           self_edge_graph, conv, fanout):
        artifact = self_edge_artifacts[conv]
        seeds = np.arange(self_edge_graph.num_nodes, dtype=np.int64)[::-1]
        served = BlockSession(artifact, self_edge_graph, fanouts=fanout,
                              batch_size=16, cache_size=512)
        reference = BlockSession(artifact, self_edge_graph, fanouts=fanout,
                                 batch_size=16, backend="numpy")
        logits = served.predict(seeds)
        np.testing.assert_array_equal(served.predict(seeds), logits)  # warm
        np.testing.assert_array_equal(logits, reference.predict(seeds))
        if fanout is None:
            full = FullGraphSession(artifact, self_edge_graph).predict()
            np.testing.assert_array_equal(logits, full[seeds])

    def test_integer_operator_shares_the_block_pattern(
            self, self_edge_artifacts, self_edge_graph):
        session = BlockSession(self_edge_artifacts["gcn"], self_edge_graph)
        block = session.sampler.sample(np.asarray([0, 7, 89])).blocks[-1]
        source = block.normalized_adjacency()
        params = self_edge_artifacts["gcn"].layers[0].params("adjacency")
        quantized = session._quantized_operator(source, params, fake=False)
        assert quantized.values.dtype == np.int64
        for name in ("indices", "indptr"):  # wrapped, not copied
            assert np.shares_memory(getattr(quantized.csr, name),
                                    getattr(source.csr, name))


class TestMemoryBoundedness:
    def test_never_materialises_full_adjacency(self, artifacts, small_cora):
        """Block serving builds no full-graph normalised/self-loop adjacency."""
        graph = small_cora.copy()  # fresh, empty adjacency cache
        session = BlockSession(artifacts["gcn"], graph, fanouts=3, batch_size=16)
        fanout, num_seeds = 3, 8
        run = session.run(np.arange(num_seeds, dtype=np.int64))

        # The raw adjacency is the input data the sampler slices rows from...
        assert "adj_False" in graph._cache
        # ...but the full normalised operator (and the self-loop-augmented
        # adjacency it derives from) must never be built by the serving path.
        assert "gcn_norm" not in graph._cache
        assert "adj_True" not in graph._cache

        # Work is bounded by the request's fanout-capped receptive field.
        receptive_bound = num_seeds * (fanout + 1) ** 2
        assert run.num_input_nodes <= receptive_bound
        assert run.num_input_nodes < graph.num_nodes

    def test_block_work_scales_with_request_not_graph(self, artifacts,
                                                      small_cora):
        session = BlockSession(artifacts["gcn"], small_cora, fanouts=2,
                               batch_size=64)
        small = session.run(np.arange(2, dtype=np.int64))
        large = session.run(np.arange(32, dtype=np.int64))
        full = FullGraphSession(artifacts["gcn"], small_cora).run()
        assert small.bit_operations.total_bit_operations \
            < large.bit_operations.total_bit_operations
        assert large.bit_operations.total_bit_operations \
            < full.bit_operations.total_bit_operations
