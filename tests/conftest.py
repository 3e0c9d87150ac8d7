"""Shared fixtures: tiny graphs, datasets, and the parity-matrix builders.

The ``parity_*`` factory fixtures back ``tests/parity_matrix.py`` — one
memoised builder per execution mode (float model, trained QAT model,
exported integer artifact), keyed by ``(conv family, heads)``, so every
matrix cell reuses the same trained weights and the whole matrix stays
cheap enough for tier-1.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.graphs.datasets import load_cora, load_tu_dataset
from repro.graphs.datasets.synthetic import SBMConfig, generate_sbm_graph
from repro.graphs.graph import Graph

#: Hidden width of every parity-matrix model (divisible by every head count).
PARITY_HIDDEN = 16
#: TAG polynomial depth used by the parity matrix (kept small for speed).
PARITY_TAG_HOPS = 2


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_graph() -> Graph:
    """A deterministic 12-node graph with features, labels and masks."""
    edges = np.asarray([
        [0, 1, 1, 2, 2, 3, 4, 5, 5, 6, 7, 8, 8, 9, 10, 11, 0, 4, 6, 10],
        [1, 0, 2, 1, 3, 2, 5, 4, 6, 5, 8, 7, 9, 8, 11, 10, 4, 0, 10, 6],
    ])
    generator = np.random.default_rng(7)
    x = generator.standard_normal((12, 5)).astype(np.float32)
    y = np.asarray([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
    train = np.zeros(12, dtype=bool)
    train[[0, 4, 8]] = True
    val = np.zeros(12, dtype=bool)
    val[[1, 5, 9]] = True
    test = np.zeros(12, dtype=bool)
    test[[2, 3, 6, 7, 10, 11]] = True
    return Graph(x, edges, y=y, train_mask=train, val_mask=val, test_mask=test,
                 name="tiny")


@pytest.fixture(scope="session")
def small_cora() -> Graph:
    """A small but realistic citation-style graph (shared, read-only)."""
    return load_cora(scale=0.08, seed=0)


@pytest.fixture(scope="session")
def sbm_graph() -> Graph:
    config = SBMConfig(num_nodes=120, num_classes=4, num_features=32,
                       average_degree=4.0, name="sbm-test")
    return generate_sbm_graph(config, seed=3)


@pytest.fixture(scope="session")
def self_edge_graph() -> Graph:
    """An SBM graph with self-edges on every seventh node and one isolated
    node: where a sampled self-edge meets its block self loop, and where a
    row is empty."""
    config = SBMConfig(num_nodes=90, num_classes=3, num_features=12,
                       average_degree=4.0, name="sbm-self-edges")
    base = generate_sbm_graph(config, seed=5)
    isolated = base.num_nodes - 1
    edges = base.edge_index[:, (base.edge_index != isolated).all(axis=0)]
    looped = np.arange(0, isolated, 7)
    edges = np.concatenate([edges, np.stack([looped, looped])], axis=1)
    return Graph(base.x, edges, y=base.y, train_mask=base.train_mask,
                 val_mask=base.val_mask, test_mask=base.test_mask,
                 name=config.name)


@pytest.fixture(scope="session")
def tu_graphs():
    """A small TU-style graph-classification dataset (shared, read-only)."""
    return load_tu_dataset("imdb-b", num_graphs=24, seed=0)


@pytest.fixture(scope="session")
def in_pinned_child():
    """``run(function) -> (pinned, function())`` in a forked child that
    first pinned its BLAS to one thread, as a shard worker does; ``pinned``
    counts the OpenBLAS copies found (0: nothing to test).  The child
    inherits the caller's memory, so ``function`` may compare against
    results computed here without shipping them."""
    import multiprocessing

    from repro.sharding._blas import pin_blas_to_one_thread

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    context = multiprocessing.get_context("fork")

    def run(function, timeout: float = 60.0):
        receive, send = context.Pipe(duplex=False)

        def child():
            try:
                send.send((pin_blas_to_one_thread(), function()))
            except Exception as error:  # noqa: BLE001 - reported below
                send.send((None, repr(error)))

        process = context.Process(target=child)
        process.start()
        try:
            assert receive.poll(timeout), "the forked child sent no result"
            pinned, result = receive.recv()
        finally:
            process.join(timeout=10.0)
            if process.is_alive():
                process.kill()
                process.join()
        assert pinned is not None, result
        return pinned, result

    return run


# --------------------------------------------------------------------------- #
# parity-matrix builders (see tests/parity_matrix.py)
# --------------------------------------------------------------------------- #
class GatedSession:
    """Wraps a session so that its first ``run`` blocks until ``release()``.

    :meth:`hold` submits one request and returns once the async engine's
    dispatcher is stuck inside that request's flush.  Everything a test
    submits after that is pending together, so it is served by one later
    flush, whatever the dispatcher's batching policy.  ``batches`` records
    the seeds of every ``run`` call and ``flushes`` the number of requests
    of every flush of the held engine.
    """

    def __init__(self, inner):
        self.inner = inner
        self.batches = []
        self.flushes = []
        self._entered = threading.Event()
        self._gate = threading.Event()
        self._lock = threading.Lock()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def run(self, nodes):
        with self._lock:
            self.batches.append(np.asarray(nodes).copy())
            first = len(self.batches) == 1
        if first:
            self._entered.set()
            if not self._gate.wait(timeout=30):
                raise TimeoutError("the held run was never released")
        return self.inner.run(nodes)

    def hold(self, engine, nodes=(0,)):
        """Occupy ``engine``'s dispatcher; returns the held request's future."""
        inner_flush = engine.engine.flush

        def counted_flush():
            results = inner_flush()
            self.flushes.append(len(results))
            return results

        engine.engine.flush = counted_flush
        future = engine.submit(nodes)
        assert self._entered.wait(timeout=30), "the dispatcher never ran"
        return future

    def release(self) -> None:
        self._gate.set()


@pytest.fixture
def gated_session_class():
    """Session wrapper whose first run blocks (holds the dispatcher)."""
    return GatedSession


@pytest.fixture(scope="session")
def parity_graph(sbm_graph) -> Graph:
    """The graph every parity-matrix cell runs against."""
    return sbm_graph


@pytest.fixture(scope="session")
def parity_float_model(parity_graph):
    """Memoised ``(family, heads) -> eval-mode float NodeClassifier``."""
    from repro.core.build import build_node_model

    cache = {}

    def build(family: str, heads: int):
        key = (family, heads)
        if key not in cache:
            model = build_node_model(family, parity_graph.num_features,
                                     PARITY_HIDDEN, parity_graph.num_classes,
                                     heads=heads, dropout=0.0,
                                     rng=np.random.default_rng(0))
            model.eval()
            cache[key] = model
        return cache[key]

    return build


@pytest.fixture(scope="session")
def parity_quant_model(parity_graph):
    """Memoised ``(family, heads) -> trained eval-mode QuantNodeClassifier``.

    A few QAT epochs initialise every observer on realistic activations;
    parity is an execution-path contract, so accuracy is irrelevant here.
    """
    from repro.core.search_space import conv_component_names
    from repro.quant.qmodules import QuantNodeClassifier, uniform_assignment
    from repro.training.trainer import train_node_classifier

    cache = {}

    def build(family: str, heads: int):
        key = (family, heads)
        if key not in cache:
            assignment = uniform_assignment(
                conv_component_names(family, 2, hops=PARITY_TAG_HOPS), 8)
            model = QuantNodeClassifier.from_assignment(
                [(parity_graph.num_features, PARITY_HIDDEN),
                 (PARITY_HIDDEN, parity_graph.num_classes)], family,
                assignment, dropout=0.0, hops=PARITY_TAG_HOPS, heads=heads,
                rng=np.random.default_rng(1))
            train_node_classifier(model, parity_graph, epochs=4, lr=0.02)
            model.eval()
            cache[key] = model
        return cache[key]

    return build


@pytest.fixture(scope="session")
def parity_float_artifact(parity_graph):
    """Memoised ``(family, heads) -> float-export QuantizedArtifact``.

    A 32-bit uniform assignment makes every quantizer an identity, so the
    exported artifact serves the float fallback path — the float-export
    axis of the shard-parity matrix.
    """
    from repro.core.search_space import conv_component_names
    from repro.quant.qmodules import QuantNodeClassifier, uniform_assignment
    from repro.serving import QuantizedArtifact
    from repro.training.trainer import train_node_classifier

    cache = {}

    def build(family: str, heads: int):
        key = (family, heads)
        if key not in cache:
            assignment = uniform_assignment(
                conv_component_names(family, 2, hops=PARITY_TAG_HOPS), 32)
            model = QuantNodeClassifier.from_assignment(
                [(parity_graph.num_features, PARITY_HIDDEN),
                 (PARITY_HIDDEN, parity_graph.num_classes)], family,
                assignment, dropout=0.0, hops=PARITY_TAG_HOPS, heads=heads,
                rng=np.random.default_rng(1))
            train_node_classifier(model, parity_graph, epochs=2, lr=0.02)
            model.eval()
            cache[key] = QuantizedArtifact.from_model(model)
        return cache[key]

    return build


@pytest.fixture(scope="session")
def parity_artifact(parity_quant_model):
    """Memoised ``(family, heads) -> QuantizedArtifact`` for integer serving."""
    from repro.serving import QuantizedArtifact

    cache = {}

    def build(family: str, heads: int):
        key = (family, heads)
        if key not in cache:
            cache[key] = QuantizedArtifact.from_model(
                parity_quant_model(family, heads))
        return cache[key]

    return build
