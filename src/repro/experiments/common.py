"""Shared helpers for the experiment runners.

Provides the per-method runners (FP32, uniform QAT, Degree-Quant, A²Q,
MixQ-GNN native and MixQ + DQ) for node classification, the row/format
utilities used to print paper-style tables, and seed aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.mixq import MixQNodeClassifier, MixQResult
from repro.graphs.graph import Graph
from repro.quant.a2q import A2QNodeClassifier
from repro.quant.bitops import FP32_BITS, BitOpsCounter
from repro.quant.degree_quant import attach_degree_probabilities, degree_quant_factory
from repro.quant.qmodules import (
    QuantNodeClassifier,
    conv_component_names,
    uniform_assignment,
)
from repro.core.build import build_node_model, layer_dimensions
from repro.training.trainer import train_node_classifier, training_sampler


@dataclass
class MethodRow:
    """One row of a results table: method, accuracy (mean ± std), bits, GBitOPs."""

    method: str
    accuracies: List[float] = field(default_factory=list)
    bits: float = float(FP32_BITS)
    giga_bit_operations: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies)) if self.accuracies else float("nan")

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.accuracies)) if self.accuracies else float("nan")

    def as_dict(self) -> Dict[str, float]:
        return {"method": self.method, "accuracy": self.mean_accuracy,
                "std": self.std_accuracy, "bits": self.bits,
                "gbitops": self.giga_bit_operations, **self.extra}


def format_table(title: str, rows: Sequence[MethodRow],
                 metric_name: str = "Accuracy") -> str:
    """Render rows in the layout of the paper's tables."""
    lines = [title, "-" * len(title),
             f"{'Method':<22} {metric_name + ' (%)':>16} {'Bits':>8} {'GBitOPs':>10}"]
    for row in rows:
        accuracy = f"{row.mean_accuracy * 100:5.1f} ± {row.std_accuracy * 100:4.1f}"
        lines.append(f"{row.method:<22} {accuracy:>16} {row.bits:>8.2f} "
                     f"{row.giga_bit_operations:>10.3f}")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# per-method node-classification runners
# --------------------------------------------------------------------------- #
def _architecture_dims(graph: Graph, hidden: int, num_layers: int) -> list:
    return layer_dimensions(graph.num_features, hidden, graph.num_classes, num_layers)


def run_fp32(graph: Graph, conv_type: str = "gcn", hidden: int = 16,
             num_layers: int = 2, epochs: int = 100, lr: float = 0.02,
             seed: int = 0, multilabel: bool = False, minibatch: bool = False,
             fanout: Optional[int] = 10, batch_size: int = 256) -> MethodRow:
    """FP32 baseline: accuracy plus the architecture's FP32 BitOPs."""
    rng = np.random.default_rng(seed)
    model = build_node_model(conv_type, graph.num_features, hidden, graph.num_classes,
                             num_layers=num_layers, rng=rng)
    sampler = training_sampler(model, graph, fanout, batch_size,
                               seed=seed) if minibatch else None
    result = train_node_classifier(model, graph, epochs=epochs, lr=lr,
                                   multilabel=multilabel, sampler=sampler)
    return MethodRow("FP32", [result.test_accuracy], bits=float(FP32_BITS),
                     giga_bit_operations=model.bit_operations(graph).giga_bit_operations())


def run_uniform_qat(graph: Graph, bits: int, conv_type: str = "gcn", hidden: int = 16,
                    num_layers: int = 2, epochs: int = 100, lr: float = 0.02,
                    seed: int = 0, multilabel: bool = False,
                    use_degree_quant: bool = False,
                    method_name: Optional[str] = None, minibatch: bool = False,
                    fanout: Optional[int] = 10, batch_size: int = 256) -> MethodRow:
    """Uniform fixed-bit QAT — also used as the DQ baseline when requested."""
    rng = np.random.default_rng(seed)
    assignment = uniform_assignment(conv_component_names(conv_type, num_layers), bits)
    factory = degree_quant_factory(rng=rng) if use_degree_quant else None
    kwargs = {"quantizer_factory": factory} if factory is not None else {}
    model = QuantNodeClassifier.from_assignment(
        _architecture_dims(graph, hidden, num_layers), conv_type, assignment,
        rng=rng, **kwargs)
    if use_degree_quant:
        attach_degree_probabilities(model, graph)
    sampler = training_sampler(model, graph, fanout, batch_size,
                               seed=seed) if minibatch else None
    result = train_node_classifier(model, graph, epochs=epochs, lr=lr,
                                   multilabel=multilabel, sampler=sampler)
    counter: BitOpsCounter = model.bit_operations(graph)
    name = method_name or (f"DQ INT{bits}" if use_degree_quant else f"QAT INT{bits}")
    return MethodRow(name, [result.test_accuracy], bits=float(bits),
                     giga_bit_operations=counter.giga_bit_operations())


def run_a2q(graph: Graph, hidden: int = 16, num_layers: int = 2, epochs: int = 100,
            lr: float = 0.02, penalty_weight: float = 0.05, seed: int = 0,
            multilabel: bool = False) -> MethodRow:
    """A²Q baseline: per-node learnable scales/bit-widths with a memory penalty."""
    rng = np.random.default_rng(seed)
    model = A2QNodeClassifier(_architecture_dims(graph, hidden, num_layers),
                              graph.num_nodes, rng=rng)
    result = train_node_classifier(
        model, graph, epochs=epochs, lr=lr, multilabel=multilabel,
        extra_penalty=lambda m, g: m.memory_penalty(g), penalty_weight=penalty_weight)
    counter = model.bit_operations(graph)
    return MethodRow("A2Q", [result.test_accuracy], bits=model.average_bits(),
                     giga_bit_operations=counter.giga_bit_operations(),
                     extra={"quant_parameters": model.num_quantization_parameters()})


def mixq_label(lambda_value: float) -> str:
    """Table row label of a MixQ run; a tiny negative λ prints as ``-ε``."""
    lambda_label = "-ε" if 0 > lambda_value > -1e-4 else f"{lambda_value:g}"
    return f"MixQ(λ={lambda_label})"


def run_mixq(graph: Graph, lambda_value: float, bit_choices: Sequence[int] = (2, 4, 8),
             conv_type: str = "gcn", hidden: int = 16, num_layers: int = 2,
             search_epochs: int = 40, train_epochs: int = 100, lr: float = 0.02,
             seed: int = 0, multilabel: bool = False,
             with_degree_quant: bool = False,
             method_name: Optional[str] = None, minibatch: bool = False,
             fanout: Optional[int] = 10, batch_size: int = 256) -> MethodRow:
    """MixQ-GNN (optionally combined with the DQ quantizer)."""
    factory_kwargs = {}
    if with_degree_quant:
        factory_kwargs["quantizer_factory"] = degree_quant_factory(
            rng=np.random.default_rng(seed))
    mixq = MixQNodeClassifier(conv_type, graph.num_features, hidden, graph.num_classes,
                              num_layers=num_layers, bit_choices=bit_choices,
                              lambda_value=lambda_value, seed=seed, **factory_kwargs)
    result: MixQResult = mixq.fit(graph, search_epochs=search_epochs,
                                  train_epochs=train_epochs, lr=lr,
                                  multilabel=multilabel, minibatch=minibatch,
                                  fanout=fanout, batch_size=batch_size)
    if method_name is None:
        method_name = mixq_label(lambda_value) + (" + DQ" if with_degree_quant else "")
    return MethodRow(method_name, [result.accuracy], bits=result.average_bits,
                     giga_bit_operations=result.giga_bit_operations)


def merge_seed_rows(rows: Sequence[MethodRow]) -> MethodRow:
    """Aggregate rows of the same method produced with different seeds."""
    if not rows:
        raise ValueError("no rows to merge")
    merged = MethodRow(rows[0].method)
    for row in rows:
        merged.accuracies.extend(row.accuracies)
    merged.bits = float(np.mean([row.bits for row in rows]))
    merged.giga_bit_operations = float(np.mean([row.giga_bit_operations for row in rows]))
    return merged
