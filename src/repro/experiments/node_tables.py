"""Node-classification experiments: Tables 3, 4, 5, 6 and 7 of the paper."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    MethodRow,
    merge_seed_rows,
    run_a2q,
    run_fp32,
    run_mixq,
    run_uniform_qat,
)
from repro.experiments.config import ExperimentScale, QUICK
from repro.graphs.datasets import load_large_scale, load_node_dataset
from repro.graphs.graph import Graph

EPSILON_LAMBDA = -1e-8


def _load_citation(name: str, scale: ExperimentScale, seed: int) -> Graph:
    return load_node_dataset(name, scale=scale.citation_scale, seed=seed)


def _seeded(rows_per_seed: List[List[MethodRow]]) -> List[MethodRow]:
    """Merge per-seed row lists (all seeds produce the same method order)."""
    merged = []
    for per_method in zip(*rows_per_seed):
        merged.append(merge_seed_rows(list(per_method)))
    return merged


def table3_node_classification(datasets: Sequence[str] = ("cora", "citeseer", "pubmed"),
                               scale: ExperimentScale = QUICK,
                               bit_choices: Sequence[int] = (2, 4, 8),
                               lambdas: Sequence[float] = (EPSILON_LAMBDA, 0.1, 1.0),
                               minibatch: bool = False,
                               fanout: Optional[int] = 10,
                               batch_size: int = 256
                               ) -> Dict[str, List[MethodRow]]:
    """Table 3: GCN node classification — FP32, DQ, A²Q and MixQ(λ) per dataset.

    ``minibatch=True`` trains FP32 / DQ / MixQ on neighbor-sampled batches
    with the given per-layer ``fanout``; A²Q trains full-batch because its
    per-node quantization state is tied to the full graph.
    """
    sampled = {"minibatch": minibatch, "fanout": fanout, "batch_size": batch_size}
    results: Dict[str, List[MethodRow]] = {}
    for dataset in datasets:
        per_seed: List[List[MethodRow]] = []
        for seed in range(scale.num_seeds):
            graph = _load_citation(dataset, scale, seed)
            rows = [
                run_fp32(graph, "gcn", scale.hidden_features,
                         epochs=scale.train_epochs, seed=seed, **sampled),
                run_uniform_qat(graph, 8, "gcn", scale.hidden_features,
                                epochs=scale.train_epochs, seed=seed,
                                use_degree_quant=True, **sampled),
                run_uniform_qat(graph, 4, "gcn", scale.hidden_features,
                                epochs=scale.train_epochs, seed=seed,
                                use_degree_quant=True, **sampled),
                run_a2q(graph, scale.hidden_features, epochs=scale.train_epochs, seed=seed),
            ]
            for lambda_value in lambdas:
                rows.append(run_mixq(graph, lambda_value, bit_choices, "gcn",
                                     scale.hidden_features,
                                     search_epochs=scale.search_epochs,
                                     train_epochs=scale.train_epochs, seed=seed,
                                     **sampled))
            per_seed.append(rows)
        results[dataset] = _seeded(per_seed)
    return results


def table4_mixq_with_dq(dataset: str = "cora", scale: ExperimentScale = QUICK,
                        bit_choices: Sequence[int] = (2, 4, 8),
                        lambdas: Sequence[float] = (EPSILON_LAMBDA, 0.1, 1.0)
                        ) -> List[MethodRow]:
    """Table 4: native MixQ vs MixQ + DQ on one dataset (two-layer GCN)."""
    per_seed: List[List[MethodRow]] = []
    for seed in range(scale.num_seeds):
        graph = _load_citation(dataset, scale, seed)
        rows: List[MethodRow] = []
        for lambda_value in lambdas:
            rows.append(run_mixq(graph, lambda_value, bit_choices, "gcn",
                                 scale.hidden_features,
                                 search_epochs=scale.search_epochs,
                                 train_epochs=scale.train_epochs, seed=seed))
            rows.append(run_mixq(graph, lambda_value, bit_choices, "gcn",
                                 scale.hidden_features,
                                 search_epochs=scale.search_epochs,
                                 train_epochs=scale.train_epochs, seed=seed,
                                 with_degree_quant=True))
        per_seed.append(rows)
    return _seeded(per_seed)


def table5_mixq_dq_vs_a2q(datasets: Sequence[str] = ("cora", "citeseer", "pubmed"),
                          scale: ExperimentScale = QUICK,
                          bit_choices: Sequence[int] = (2, 4, 8)
                          ) -> Dict[str, List[MethodRow]]:
    """Table 5: A²Q vs MixQ + DQ (both use graph structure for quantization)."""
    results: Dict[str, List[MethodRow]] = {}
    for dataset in datasets:
        per_seed: List[List[MethodRow]] = []
        for seed in range(scale.num_seeds):
            graph = _load_citation(dataset, scale, seed)
            rows = [
                run_a2q(graph, scale.hidden_features, epochs=scale.train_epochs, seed=seed),
                run_mixq(graph, EPSILON_LAMBDA, bit_choices, "gcn", scale.hidden_features,
                         search_epochs=scale.search_epochs,
                         train_epochs=scale.train_epochs, seed=seed,
                         with_degree_quant=True, method_name="MixQ + DQ"),
            ]
            per_seed.append(rows)
        results[dataset] = _seeded(per_seed)
    return results


def table6_graphsage(datasets: Sequence[str] = ("cora", "citeseer", "pubmed"),
                     scale: ExperimentScale = QUICK,
                     bit_choices: Sequence[int] = (2, 4, 8),
                     lambdas: Sequence[float] = (0.1, 1.0)) -> Dict[str, List[MethodRow]]:
    """Table 6: GraphSAGE node classification with MixQ as a standalone method."""
    results: Dict[str, List[MethodRow]] = {}
    for dataset in datasets:
        per_seed: List[List[MethodRow]] = []
        for seed in range(scale.num_seeds):
            graph = _load_citation(dataset, scale, seed)
            rows = [run_fp32(graph, "sage", scale.hidden_features,
                             epochs=scale.train_epochs, seed=seed)]
            for lambda_value in lambdas:
                rows.append(run_mixq(graph, lambda_value, bit_choices, "sage",
                                     scale.hidden_features,
                                     search_epochs=scale.search_epochs,
                                     train_epochs=scale.train_epochs, seed=seed))
            per_seed.append(rows)
        results[dataset] = _seeded(per_seed)
    return results


def table7_large_scale(datasets: Sequence[str] = ("reddit", "ogb-proteins",
                                                  "ogb-products", "igb"),
                       scale: ExperimentScale = QUICK,
                       bit_choices: Sequence[int] = (2, 4, 8),
                       lambdas: Sequence[float] = (EPSILON_LAMBDA, 0.1, 1.0),
                       minibatch: bool = False,
                       fanout: Optional[int] = 10,
                       batch_size: int = 256
                       ) -> Dict[str, List[MethodRow]]:
    """Table 7: GraphSAGE + MixQ on the large-scale dataset stand-ins.

    OGB-Proteins is multi-label and evaluated with ROC-AUC, the others with
    accuracy — the same metrics the paper reports.  ``minibatch=True`` is
    the paper-faithful configuration here: the original experiments run
    GraphSAGE with neighbour sampling, and it is the only configuration that
    scales to stand-ins beyond a few thousand nodes.
    """
    sampled = {"minibatch": minibatch, "fanout": fanout, "batch_size": batch_size}
    results: Dict[str, List[MethodRow]] = {}
    for dataset in datasets:
        multilabel = dataset == "ogb-proteins"
        per_seed: List[List[MethodRow]] = []
        for seed in range(scale.num_seeds):
            graph = load_large_scale(dataset, scale=scale.large_scale, seed=seed)
            rows = [run_fp32(graph, "sage", scale.hidden_features,
                             epochs=scale.train_epochs, seed=seed, multilabel=multilabel,
                             **sampled)]
            for lambda_value in lambdas:
                rows.append(run_mixq(graph, lambda_value, bit_choices, "sage",
                                     scale.hidden_features,
                                     search_epochs=scale.search_epochs,
                                     train_epochs=scale.train_epochs, seed=seed,
                                     multilabel=multilabel, **sampled))
            per_seed.append(rows)
        results[dataset] = _seeded(per_seed)
    return results
