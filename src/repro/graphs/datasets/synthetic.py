"""Synthetic attributed-graph generators.

The reproduction has no network access, so the public benchmark datasets the
paper evaluates on (Planetoid citation graphs, OGB, Reddit, IGB, TUDataset)
are replaced by seeded synthetic generators that preserve the properties the
quantization experiments are sensitive to:

* **community structure** — a stochastic block model with configurable
  intra/inter-class connection probabilities, so message passing carries
  label-relevant signal;
* **class-correlated features** — sparse bag-of-words-style features whose
  topic distribution depends on the class, so the FP32 model reaches
  non-trivial accuracy that quantization can then degrade;
* **skewed degree distributions** — an optional preferential-attachment hub
  overlay, because both Degree-Quant and A²Q key their behaviour off
  high-in-degree nodes.

The per-dataset mapping is the loader registry of :mod:`repro.graphs.datasets`
(``NODE_DATASETS`` / ``GRAPH_DATASETS``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.splits import train_val_test_masks


@dataclass
class SBMConfig:
    """Configuration of the citation-style stochastic block model."""

    num_nodes: int = 600
    num_classes: int = 6
    num_features: int = 256
    average_degree: float = 4.0
    homophily: float = 0.85
    feature_signal: float = 0.9
    feature_sparsity: float = 0.05
    hub_fraction: float = 0.02
    hub_extra_edges: int = 20
    train_per_class: int = 20
    num_val: int = 120
    num_test: int = 240
    name: str = "sbm"


def _sample_block_edges(labels: np.ndarray, average_degree: float, homophily: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Sample undirected SBM edges given node labels."""
    num_nodes = labels.size
    num_classes = int(labels.max()) + 1
    total_edges = int(average_degree * num_nodes / 2)
    intra_edges = int(total_edges * homophily)
    inter_edges = total_edges - intra_edges

    per_class = [np.flatnonzero(labels == c) for c in range(num_classes)]
    edges = set()

    def add_edge(u: int, v: int) -> None:
        if u == v:
            return
        edges.add((min(u, v), max(u, v)))

    # Intra-class edges.
    class_probability = np.asarray([members.size for members in per_class], dtype=np.float64)
    class_probability = class_probability / class_probability.sum()
    attempts = 0
    while len(edges) < intra_edges and attempts < 20 * intra_edges:
        attempts += 1
        cls = rng.choice(num_classes, p=class_probability)
        members = per_class[cls]
        if members.size < 2:
            continue
        u, v = rng.choice(members, size=2, replace=False)
        add_edge(int(u), int(v))

    # Inter-class edges.
    target = intra_edges + inter_edges
    attempts = 0
    while len(edges) < target and attempts < 20 * inter_edges + 100:
        attempts += 1
        u, v = rng.integers(0, num_nodes, size=2)
        if labels[u] == labels[v]:
            continue
        add_edge(int(u), int(v))

    if not edges:
        # Degenerate configuration: fall back to a ring so the graph is connected.
        ring = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
        edges = set(ring)
    edge_array = np.asarray(sorted(edges), dtype=np.int64).T
    return edge_array


def _add_hubs(edge_index: np.ndarray, num_nodes: int, hub_fraction: float,
              hub_extra_edges: int, rng: np.random.Generator) -> np.ndarray:
    """Attach extra edges to a few hub nodes to create a heavy degree tail."""
    num_hubs = max(int(hub_fraction * num_nodes), 0)
    if num_hubs == 0 or hub_extra_edges == 0:
        return edge_index
    hubs = rng.choice(num_nodes, size=num_hubs, replace=False)
    new_edges = []
    for hub in hubs:
        neighbours = rng.choice(num_nodes, size=hub_extra_edges, replace=False)
        for neighbour in neighbours:
            if neighbour != hub:
                new_edges.append((neighbour, hub))
    if not new_edges:
        return edge_index
    extra = np.asarray(new_edges, dtype=np.int64).T
    return np.concatenate([edge_index, extra], axis=1)


def _class_features(labels: np.ndarray, num_features: int, signal: float,
                    sparsity: float, rng: np.random.Generator) -> np.ndarray:
    """Sparse bag-of-words features with class-specific topic blocks."""
    num_nodes = labels.size
    num_classes = int(labels.max()) + 1
    block = max(num_features // num_classes, 1)
    features = np.zeros((num_nodes, num_features), dtype=np.float32)
    words_per_node = max(int(sparsity * num_features), 3)
    for node in range(num_nodes):
        cls = labels[node]
        on_topic = rng.random(words_per_node) < signal
        start = (cls * block) % num_features
        topic_words = start + rng.integers(0, block, size=words_per_node)
        random_words = rng.integers(0, num_features, size=words_per_node)
        chosen = np.where(on_topic, topic_words, random_words) % num_features
        features[node, chosen] = 1.0
    return features


def generate_sbm_graph(config: SBMConfig, seed: int = 0,
                       with_masks: bool = True) -> Graph:
    """Generate one citation-style graph from an :class:`SBMConfig`."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, config.num_classes, size=config.num_nodes)
    # Guarantee every class is present (small configs could otherwise miss one).
    labels[:config.num_classes] = np.arange(config.num_classes)

    undirected = _sample_block_edges(labels, config.average_degree, config.homophily, rng)
    undirected = _add_hubs(undirected, config.num_nodes, config.hub_fraction,
                           config.hub_extra_edges, rng)
    # Store both directions (the paper's datasets are undirected).
    edge_index = np.concatenate([undirected, undirected[::-1]], axis=1)

    features = _class_features(labels, config.num_features, config.feature_signal,
                               config.feature_sparsity, rng)
    graph = Graph(features, edge_index, y=labels, name=config.name)
    if with_masks:
        train_mask, val_mask, test_mask = train_val_test_masks(
            config.num_nodes, labels, train_per_class=config.train_per_class,
            num_val=config.num_val, num_test=config.num_test, rng=rng)
        graph.train_mask = train_mask
        graph.val_mask = val_mask
        graph.test_mask = test_mask
    return graph


def generate_community_graph(num_nodes: int, num_communities: int,
                             p_in: float, p_out: float,
                             rng: np.random.Generator) -> np.ndarray:
    """Dense-probability SBM edge sampler used by the TU-style generators.

    Returns an undirected ``(2, num_edges)`` edge index; suitable for the
    small graphs of graph-classification datasets where an O(n^2) Bernoulli
    sweep is affordable.
    """
    labels = rng.integers(0, num_communities, size=num_nodes)
    rows, cols = np.triu_indices(num_nodes, k=1)
    same = labels[rows] == labels[cols]
    probabilities = np.where(same, p_in, p_out)
    keep = rng.random(rows.size) < probabilities
    edge_index = np.vstack([rows[keep], cols[keep]]).astype(np.int64)
    if edge_index.shape[1] == 0:
        edge_index = np.asarray([[0], [min(1, num_nodes - 1)]], dtype=np.int64)
    return edge_index


def make_undirected(edge_index: np.ndarray) -> np.ndarray:
    """Duplicate edges in both directions."""
    return np.concatenate([edge_index, edge_index[::-1]], axis=1)


def erdos_renyi_edges(num_nodes: int, probability: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Undirected Erdős–Rényi edge index (upper-triangular sampling)."""
    rows, cols = np.triu_indices(num_nodes, k=1)
    keep = rng.random(rows.size) < probability
    edge_index = np.vstack([rows[keep], cols[keep]]).astype(np.int64)
    if edge_index.shape[1] == 0:
        edge_index = np.asarray([[0], [min(1, num_nodes - 1)]], dtype=np.int64)
    return edge_index


def preferential_attachment_edges(num_nodes: int, edges_per_node: int,
                                  rng: np.random.Generator) -> np.ndarray:
    """Barabási–Albert-style preferential attachment (heavy degree tail)."""
    edges = []
    targets = list(range(min(edges_per_node, num_nodes)))
    repeated: list[int] = list(targets)
    for node in range(len(targets), num_nodes):
        if repeated:
            chosen = rng.choice(repeated, size=min(edges_per_node, len(repeated)),
                                replace=False)
        else:
            chosen = np.asarray([0])
        for target in np.unique(chosen):
            edges.append((node, int(target)))
            repeated.append(int(target))
        repeated.extend([node] * len(np.unique(chosen)))
    if not edges:
        edges = [(0, min(1, num_nodes - 1))]
    return np.asarray(edges, dtype=np.int64).T
