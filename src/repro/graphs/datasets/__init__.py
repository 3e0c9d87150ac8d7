"""Dataset loaders and the dataset registry.

All datasets are deterministic functions of a ``seed`` (and a ``scale`` for
the node-classification graphs), so every experiment in ``benchmarks/`` is
reproducible bit-for-bit.  ``NODE_DATASETS`` and ``GRAPH_DATASETS`` map
the paper's public benchmark datasets to these synthetic stand-ins, and
:func:`dataset_characteristics` holds the paper's Table 2 figures for them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.graphs.datasets.citation import (
    PLANETOID_CHARACTERISTICS,
    load_citation,
    load_citeseer,
    load_cora,
    load_pubmed,
)
from repro.graphs.datasets.csl import circulant_skip_link_graph, load_csl
from repro.graphs.datasets.large import (
    LARGE_SCALE_CHARACTERISTICS,
    load_igb,
    load_large_scale,
    load_ogb_arxiv,
    load_ogb_products,
    load_ogb_proteins,
    load_reddit,
)
from repro.graphs.datasets.synthetic import SBMConfig, generate_sbm_graph
from repro.graphs.datasets.tu import (
    TU_CHARACTERISTICS,
    dataset_labels,
    load_tu_dataset,
)
from repro.graphs.graph import Graph

#: Registry of node-classification dataset loaders, keyed by paper name.
NODE_DATASETS: Dict[str, Callable[..., Graph]] = {
    "cora": load_cora,
    "citeseer": load_citeseer,
    "pubmed": load_pubmed,
    "ogb-arxiv": load_ogb_arxiv,
    "reddit": load_reddit,
    "ogb-products": load_ogb_products,
    "ogb-proteins": load_ogb_proteins,
    "igb": load_igb,
}

#: Registry of graph-classification dataset loaders, keyed by paper name.
GRAPH_DATASETS: Dict[str, Callable[..., List[Graph]]] = {
    "imdb-b": lambda **kw: load_tu_dataset("imdb-b", **kw),
    "proteins": lambda **kw: load_tu_dataset("proteins", **kw),
    "dd": lambda **kw: load_tu_dataset("dd", **kw),
    "reddit-b": lambda **kw: load_tu_dataset("reddit-b", **kw),
    "reddit-m": lambda **kw: load_tu_dataset("reddit-m", **kw),
    "csl": lambda **kw: load_csl(**kw),
}


def load_node_dataset(name: str, **kwargs) -> Graph:
    """Load a node-classification dataset stand-in by its paper name."""
    key = name.lower()
    if key not in NODE_DATASETS:
        raise KeyError(f"unknown node dataset {name!r}; options: {sorted(NODE_DATASETS)}")
    return NODE_DATASETS[key](**kwargs)


def load_graph_dataset(name: str, **kwargs) -> List[Graph]:
    """Load a graph-classification dataset stand-in by its paper name."""
    key = name.lower()
    if key not in GRAPH_DATASETS:
        raise KeyError(f"unknown graph dataset {name!r}; options: {sorted(GRAPH_DATASETS)}")
    return GRAPH_DATASETS[key](**kwargs)


def dataset_characteristics() -> Dict[str, Dict[str, Union[int, float, str]]]:
    """Return the paper's Table 2 characteristics for every referenced dataset."""
    table: Dict[str, Dict[str, Union[int, float, str]]] = {}
    for name, spec in PLANETOID_CHARACTERISTICS.items():
        table[name] = {"num_graphs": 1, **spec}
    for name, spec in LARGE_SCALE_CHARACTERISTICS.items():
        table[name] = {"num_graphs": 1, **{k: int(v) for k, v in spec.items()}}
    for name, spec in TU_CHARACTERISTICS.items():
        table[name] = {
            "num_graphs": spec.num_graphs,
            "num_nodes": spec.average_nodes,
            "num_classes": spec.num_classes,
            "has_node_features": spec.has_node_features,
        }
    table["csl"] = {"num_graphs": 150, "num_nodes": 41, "num_classes": 10,
                    "has_node_features": False}
    return table


__all__ = [
    "NODE_DATASETS",
    "GRAPH_DATASETS",
    "load_node_dataset",
    "load_graph_dataset",
    "dataset_characteristics",
    "load_cora",
    "load_citeseer",
    "load_pubmed",
    "load_citation",
    "load_ogb_arxiv",
    "load_reddit",
    "load_ogb_products",
    "load_ogb_proteins",
    "load_igb",
    "load_large_scale",
    "load_tu_dataset",
    "load_csl",
    "circulant_skip_link_graph",
    "dataset_labels",
    "generate_sbm_graph",
    "SBMConfig",
    "PLANETOID_CHARACTERISTICS",
    "LARGE_SCALE_CHARACTERISTICS",
    "TU_CHARACTERISTICS",
]
