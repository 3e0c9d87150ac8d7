"""Ablation experiments: Table 10 and three design-choice ablations.

The design choices are the quantizer range observer, quantizing the
aggregation output between stacked layers, and Algorithm 1's penalty
gradient routing; ``benchmarks/bench_ablation_design_choices.py`` runs them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.build import build_relaxed_node_classifier, layer_dimensions
from repro.core.search_space import random_assignment
from repro.core.selection import search_node_bitwidths
from repro.experiments.common import MethodRow, merge_seed_rows, run_mixq, run_uniform_qat
from repro.experiments.config import ExperimentScale, QUICK
from repro.graphs.datasets import load_node_dataset
from repro.quant.qmodules import gcn_component_names
from repro.quant.quantizer import AffineQuantizer, IdentityQuantizer


def _qat_row(graph, assignment, name: str, scale: ExperimentScale, seed: int,
             **kwargs) -> MethodRow:
    """The ablations' QAT row: a 2-layer GCN trained at the default lr."""
    return run_uniform_qat(graph, assignment, hidden=scale.hidden_features,
                           epochs=scale.train_epochs, lr=0.01, seed=seed,
                           method_name=name, **kwargs)


def table10_random_vs_mixq(datasets: Sequence[str] = ("cora", "citeseer", "pubmed"),
                           scale: ExperimentScale = QUICK,
                           bit_choices: Sequence[int] = (2, 4, 8),
                           num_random: int = 3) -> Dict[str, List[MethodRow]]:
    """Table 10: random bit-width assignment vs Random+INT8 vs MixQ(λ=1)."""
    component_names = gcn_component_names(2)
    output_component = "conv1.aggregate_out"
    results: Dict[str, List[MethodRow]] = {}
    for dataset in datasets:
        random_rows: List[MethodRow] = []
        random_int8_rows: List[MethodRow] = []
        mixq_rows: List[MethodRow] = []
        for seed in range(scale.num_seeds):
            graph = load_node_dataset(dataset, scale=scale.citation_scale, seed=seed)
            rng = np.random.default_rng(seed)
            for sample in range(num_random):
                plain = random_assignment(component_names, bit_choices, rng)
                random_rows.append(_qat_row(graph, plain, "Random", scale,
                                            seed * 100 + sample))
                pinned = random_assignment(component_names, bit_choices, rng,
                                           output_component=output_component,
                                           output_bits=8)
                random_int8_rows.append(_qat_row(graph, pinned, "Random+INT8", scale,
                                                 seed * 100 + sample + 50))
            mixq_rows.append(run_mixq(graph, 1.0, bit_choices, "gcn",
                                      scale.hidden_features,
                                      search_epochs=scale.search_epochs,
                                      train_epochs=scale.train_epochs, seed=seed,
                                      method_name="MixQ(λ=1)"))
        results[dataset] = [merge_seed_rows(random_rows),
                            merge_seed_rows(random_int8_rows),
                            merge_seed_rows(mixq_rows)]
    return results


# --------------------------------------------------------------------------- #
# design-choice ablations
# --------------------------------------------------------------------------- #
def ablation_quantizer_ranges(dataset: str = "cora", scale: ExperimentScale = QUICK,
                              bits: int = 4) -> List[MethodRow]:
    """EMA min/max vs percentile observer ranges for a uniform INT4 GCN."""
    graph = load_node_dataset(dataset, scale=scale.citation_scale, seed=0)
    component_names = gcn_component_names(2)
    assignment = {name: bits for name in component_names}

    def ema_factory(bits_: int, kind: str):
        if bits_ >= 32:
            return IdentityQuantizer()
        return AffineQuantizer(bits=bits_, symmetric=(kind != "activation"),
                               observer="ema")

    def percentile_factory(bits_: int, kind: str):
        if bits_ >= 32:
            return IdentityQuantizer()
        return AffineQuantizer(bits=bits_, symmetric=(kind != "activation"),
                               observer="percentile")

    return [_qat_row(graph, assignment, name, scale, 0, quantizer_factory=factory)
            for name, factory in (("EMA ranges", ema_factory),
                                  ("Percentile ranges", percentile_factory))]


def ablation_output_quantizer(dataset: str = "cora", scale: ExperimentScale = QUICK,
                              bits: int = 4) -> List[MethodRow]:
    """Quantizing vs skipping the aggregation output between stacked layers.

    The paper recommends S_y = 1, Z_y = 0 between message-passing layers (the
    next layer re-quantizes its input anyway); this ablation compares both.
    """
    graph = load_node_dataset(dataset, scale=scale.citation_scale, seed=0)
    component_names = gcn_component_names(2)
    with_output = {name: bits for name in component_names}
    without_output = dict(with_output)
    without_output["conv0.aggregate_out"] = 32
    return [_qat_row(graph, assignment, name, scale, 0)
            for name, assignment in (("Quantized layer output", with_output),
                                     ("FP32 layer output (S_y=1)", without_output))]


def ablation_penalty_routing(dataset: str = "cora", scale: ExperimentScale = QUICK,
                             bit_choices: Sequence[int] = (2, 4, 8),
                             lambda_value: float = 1.0) -> List[MethodRow]:
    """Joint objective vs Algorithm-1-literal decoupled gradient routing."""
    graph = load_node_dataset(dataset, scale=scale.citation_scale, seed=0)
    layer_dims = layer_dimensions(graph.num_features, scale.hidden_features,
                                  graph.num_classes, 2)
    rows = []
    for name, decoupled in (("Joint L + λC", False), ("Decoupled (Alg. 1)", True)):
        relaxed = build_relaxed_node_classifier(
            "gcn", layer_dims, bit_choices, rng=np.random.default_rng(0))
        search = search_node_bitwidths(relaxed, graph, lambda_value,
                                       epochs=scale.search_epochs,
                                       penalty_only_alphas=decoupled)
        rows.append(_qat_row(graph, search.assignment, name, scale, 0))
    return rows
