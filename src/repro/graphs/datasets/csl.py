"""The CSL (Circulant Skip Links) synthetic dataset.

CSL is synthetic in the original paper too (Murphy et al., 2019), so this is
a faithful construction rather than a stand-in: graph ``CSL(n, r)`` is a
cycle on ``n`` nodes plus skip links connecting every node ``i`` to
``(i + r) mod n``.  The classification task is to recover the skip length
``r``, which is impossible for 1-WL-bounded GNNs without positional
encodings — hence the Laplacian positional encodings used in Table 9.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.transforms import (
    laplacian_positional_encoding,
    random_walk_positional_encoding,
)

#: Skip lengths used by the original dataset (10 classes, n = 41).
DEFAULT_SKIP_LENGTHS = (2, 3, 4, 5, 6, 9, 11, 12, 13, 16)
DEFAULT_NUM_NODES = 41


def circulant_skip_link_graph(num_nodes: int, skip: int, label: int) -> Graph:
    """Build one CSL graph: a cycle plus ``skip``-length chords."""
    if not 1 < skip < num_nodes - 1:
        raise ValueError("skip length must be in (1, num_nodes - 1)")
    nodes = np.arange(num_nodes)
    cycle = np.vstack([nodes, (nodes + 1) % num_nodes])
    chords = np.vstack([nodes, (nodes + skip) % num_nodes])
    edge_index = np.concatenate([cycle, chords], axis=1)
    edge_index = np.concatenate([edge_index, edge_index[::-1]], axis=1)
    # Remove duplicate edges that appear when skip relates to num_nodes.
    keys = edge_index[0] * num_nodes + edge_index[1]
    _, unique = np.unique(keys, return_index=True)
    edge_index = edge_index[:, np.sort(unique)]
    features = np.ones((num_nodes, 1), dtype=np.float32)
    return Graph(features, edge_index, y=np.asarray(label), name=f"csl_{skip}")


def load_csl(num_nodes: int = DEFAULT_NUM_NODES,
             skip_lengths: Sequence[int] = DEFAULT_SKIP_LENGTHS,
             copies_per_class: int = 15,
             positional_encoding_dim: int = 20,
             positional_encoding: str = "random_walk",
             seed: int = 0) -> List[Graph]:
    """Generate the CSL dataset with positional encodings.

    The original dataset has 150 graphs (15 isomorphic copies of each of the
    10 skip lengths) on 41 nodes with 50-dimensional positional encodings; all
    of these are parameters here.  Copies are node-relabelled permutations of
    the base graph so the encodings differ between copies.

    ``positional_encoding`` selects ``"laplacian"`` (the paper's choice) or
    ``"random_walk"`` return probabilities.  The default is random-walk: the
    eigenvectors of circulant matrices are the Fourier basis for every skip
    length, which leaves only a weak ordering signal for a small CPU-scale
    model, whereas random-walk return probabilities encode the skip length
    directly and reproduce the paper's phenomenon (FP32/INT4 learn the task,
    INT2 collapses) at this scale.
    """
    if positional_encoding not in {"laplacian", "random_walk"}:
        raise ValueError("positional_encoding must be 'laplacian' or 'random_walk'")
    rng = np.random.default_rng(seed)
    graphs: List[Graph] = []
    for label, skip in enumerate(skip_lengths):
        base = circulant_skip_link_graph(num_nodes, skip, label)
        for _ in range(copies_per_class):
            permutation = rng.permutation(num_nodes)
            relabelled_edges = permutation[base.edge_index]
            copy = Graph(base.x.copy(), relabelled_edges, y=np.asarray(label),
                         name=base.name)
            if positional_encoding == "laplacian":
                copy = laplacian_positional_encoding(
                    copy, dim=positional_encoding_dim, concatenate=False)
            else:
                copy = random_walk_positional_encoding(
                    copy, steps=positional_encoding_dim, concatenate=False)
            graphs.append(copy)
    rng.shuffle(graphs)
    return graphs
