"""Node-classification experiments: Tables 3, 4, 5, 6 and 7 of the paper.

A node table is its list of rows: per-method runners of
:mod:`repro.experiments.common` with the table's scale bound once by
:class:`_Methods`.  One loop, :func:`_run_rows`, trains every row on every
dataset and seed and merges each row's seeds.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.common import (
    MULTILABEL_DATASETS,
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

#: One table row: a per-method runner awaiting ``(graph, seed=, multilabel=)``.
Row = Callable[..., MethodRow]


class _Methods:
    """The per-method runners with a table's scale bound once.

    ``sampled`` (``minibatch`` / ``fanout`` / ``batch_size``) reaches every
    method but A²Q, which trains full-batch because its per-node
    quantization state is tied to the full graph.
    """

    def __init__(self, scale: ExperimentScale, **sampled) -> None:
        self.train = {"hidden": scale.hidden_features, "epochs": scale.train_epochs}
        self.search = {"hidden": scale.hidden_features,
                       "search_epochs": scale.search_epochs,
                       "train_epochs": scale.train_epochs}
        self.sampled = sampled

    def fp32(self, conv_type: str) -> Row:
        return partial(run_fp32, conv_type=conv_type, **self.train, **self.sampled)

    def dq(self, bits: int) -> Row:
        return partial(run_uniform_qat, bits=bits, conv_type="gcn", use_degree_quant=True,
                       **self.train, **self.sampled)

    def a2q(self) -> Row:
        return partial(run_a2q, **self.train)

    def mixq(self, lambda_value: float, bit_choices: Sequence[int], conv_type: str,
             **options) -> Row:
        return partial(run_mixq, lambda_value=lambda_value, bit_choices=bit_choices,
                       conv_type=conv_type, **self.search, **self.sampled, **options)


def _load_citation(name: str, scale: ExperimentScale, seed: int) -> Graph:
    return load_node_dataset(name, scale=scale.citation_scale, seed=seed)


def _load_large(name: str, scale: ExperimentScale, seed: int) -> Graph:
    return load_large_scale(name, scale=scale.large_scale, seed=seed)


def _run_rows(datasets: Sequence[str], scale: ExperimentScale, rows: Sequence[Row],
              load: Callable[[str, ExperimentScale, int], Graph] = _load_citation
              ) -> Dict[str, List[MethodRow]]:
    """Train every row on every dataset and seed; merge each row's seeds."""
    results: Dict[str, List[MethodRow]] = {}
    for dataset in datasets:
        multilabel = dataset in MULTILABEL_DATASETS
        per_seed = []
        for seed in range(scale.num_seeds):
            graph = load(dataset, scale, seed)
            per_seed.append([row(graph, seed=seed, multilabel=multilabel) for row in rows])
        results[dataset] = [merge_seed_rows(seeds) for seeds in zip(*per_seed)]
    return results


def table3_node_classification(datasets: Sequence[str], scale: ExperimentScale = QUICK,
                               bit_choices: Sequence[int] = (2, 4, 8),
                               lambdas: Sequence[float] = (EPSILON_LAMBDA, 0.1, 1.0),
                               minibatch: bool = False,
                               fanout: Optional[int] = 10,
                               batch_size: int = 256
                               ) -> Dict[str, List[MethodRow]]:
    """Table 3: GCN node classification — FP32, DQ, A²Q and MixQ(λ) per dataset.

    ``minibatch=True`` trains FP32 / DQ / MixQ on neighbor-sampled batches
    with the given per-layer ``fanout``; A²Q trains full-batch.
    """
    fit = _Methods(scale, minibatch=minibatch, fanout=fanout, batch_size=batch_size)
    return _run_rows(datasets, scale, [
        fit.fp32("gcn"), fit.dq(8), fit.dq(4), fit.a2q(),
        *(fit.mixq(lambda_value, bit_choices, "gcn") for lambda_value in lambdas)])


def table4_mixq_with_dq(datasets: Sequence[str], scale: ExperimentScale = QUICK,
                        bit_choices: Sequence[int] = (2, 4, 8),
                        lambdas: Sequence[float] = (EPSILON_LAMBDA, 0.1, 1.0)
                        ) -> Dict[str, List[MethodRow]]:
    """Table 4: native MixQ vs MixQ + DQ (two-layer GCN), per λ."""
    fit = _Methods(scale)
    return _run_rows(datasets, scale, [
        fit.mixq(lambda_value, bit_choices, "gcn", with_degree_quant=with_degree_quant)
        for lambda_value in lambdas for with_degree_quant in (False, True)])


def table5_mixq_dq_vs_a2q(datasets: Sequence[str], scale: ExperimentScale = QUICK,
                          bit_choices: Sequence[int] = (2, 4, 8)
                          ) -> Dict[str, List[MethodRow]]:
    """Table 5: A²Q vs MixQ + DQ (both use graph structure for quantization)."""
    fit = _Methods(scale)
    return _run_rows(datasets, scale, [
        fit.a2q(), fit.mixq(EPSILON_LAMBDA, bit_choices, "gcn", with_degree_quant=True,
                            method_name="MixQ + DQ")])


def table6_graphsage(datasets: Sequence[str], scale: ExperimentScale = QUICK,
                     bit_choices: Sequence[int] = (2, 4, 8),
                     lambdas: Sequence[float] = (0.1, 1.0)) -> Dict[str, List[MethodRow]]:
    """Table 6: GraphSAGE node classification with MixQ as a standalone method."""
    fit = _Methods(scale)
    return _run_rows(datasets, scale, [
        fit.fp32("sage"),
        *(fit.mixq(lambda_value, bit_choices, "sage") for lambda_value in lambdas)])


def table7_large_scale(datasets: Sequence[str], scale: ExperimentScale = QUICK,
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
    fit = _Methods(scale, minibatch=minibatch, fanout=fanout, batch_size=batch_size)
    return _run_rows(datasets, scale, [
        fit.fp32("sage"),
        *(fit.mixq(lambda_value, bit_choices, "sage") for lambda_value in lambdas)],
        load=_load_large)
