"""Shared fixtures for the serving test suite: trained quantized models."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.quant.qmodules import (
    QuantNodeClassifier,
    conv_component_names,
    uniform_assignment,
)
from repro.training.trainer import train_node_classifier

CONV_TYPES = ("gcn", "sage", "gin")
#: Families served through per-edge score plans (tested separately — their
#: fixtures are lighter and TAG carries a hop plan).
ATTENTION_CONV_TYPES = ("gat", "tag", "transformer")

#: TAG depth used throughout the serving tests (kept small for speed).
TAG_TEST_HOPS = 2

def train_quantized(conv_type: str, graph, bits: int = 8, hidden: int = 16,
                    epochs: int = 12, seed: int = 0,
                    heads: int = 1) -> QuantNodeClassifier:
    """A small trained (observers initialised) quantized classifier."""
    assignment = uniform_assignment(
        conv_component_names(conv_type, 2, hops=TAG_TEST_HOPS), bits)
    if conv_type == "tag":
        extra = {"hops": TAG_TEST_HOPS}
    elif conv_type in ("gat", "transformer"):
        extra = {"heads": heads}
    else:
        extra = {}
    model = QuantNodeClassifier.from_assignment(
        [(graph.num_features, hidden), (hidden, graph.num_classes)], conv_type,
        assignment, dropout=0.0, rng=np.random.default_rng(seed), **extra)
    train_node_classifier(model, graph, epochs=epochs, lr=0.02)
    model.eval()
    return model


@pytest.fixture(scope="session")
def served_models(small_cora):
    """One trained int8 model per matrix conv family (shared, read-only)."""
    return {conv: train_quantized(conv, small_cora) for conv in CONV_TYPES}


@pytest.fixture(scope="session")
def self_edge_artifacts(self_edge_graph):
    """int8 gcn / sage artifacts trained on the graph with self-edges."""
    from repro.serving import QuantizedArtifact

    return {conv: QuantizedArtifact.from_model(
        train_quantized(conv, self_edge_graph, epochs=6))
        for conv in ("gcn", "sage")}


@pytest.fixture(scope="session")
def attention_models(small_cora):
    """One trained int8 model per attention conv family (shared, read-only)."""
    return {conv: train_quantized(conv, small_cora, epochs=8)
            for conv in ATTENTION_CONV_TYPES}


@pytest.fixture(scope="session")
def multi_head_models(small_cora):
    """Trained 4-head GAT / Transformer classifiers (shared, read-only)."""
    return {conv: train_quantized(conv, small_cora, epochs=8, heads=4)
            for conv in ("gat", "transformer")}


class PoisonedSession:
    """Stub session that raises whenever a poisoned node is in the batch.

    Logits are ``node id`` repeated across 3 classes, so tests can check a
    surviving request's rows without a real model.
    """

    NUM_CLASSES = 3
    request_invariant_cost = False

    def __init__(self, poisoned, num_nodes: int = 64):
        self.graph = SimpleNamespace(num_nodes=num_nodes)
        self.poisoned = set(poisoned)

    def run(self, nodes):
        nodes = np.asarray(nodes)
        bad = self.poisoned.intersection(nodes.tolist())
        if bad:
            raise RuntimeError(f"poisoned nodes {sorted(bad)}")
        return SimpleNamespace(
            logits=np.tile(nodes[:, None].astype(np.float64),
                           (1, self.NUM_CLASSES)),
            giga_bit_operations=lambda: 1e-3 * nodes.size)


@pytest.fixture
def poisoned_session_class():
    """The failing-stub class (tests choose their own poison set)."""
    return PoisonedSession
