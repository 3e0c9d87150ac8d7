"""Bit Operations (BitOPs) efficiency metric — Section 5.1 of the paper.

An architecture is viewed as a collection of functions; each function
executes a number of scalar operations at a fixed bit-width.  The BitOPs of
a module is the operation count weighted by the bit-width, and the
architecture total is the sum over all modules.  The average bit-width
("Bits" in the paper's tables) is the unweighted mean of the bit-widths
assigned to the architecture's quantized components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.nn.linear import linear_operations

FP32_BITS = 32

__all__ = [
    "FP32_BITS",
    "OperationRecord",
    "BitOpsCounter",
    "average_bits",
    "conv_bit_operations",
]


@dataclass
class OperationRecord:
    """One function's contribution: ``operations`` scalar ops at ``bits`` width."""

    name: str
    operations: int
    bits: int

    @property
    def bit_operations(self) -> int:
        return self.operations * self.bits


@dataclass
class BitOpsCounter:
    """Accumulates :class:`OperationRecord` entries across an architecture."""

    records: List[OperationRecord] = field(default_factory=list)

    def add(self, name: str, operations: int, bits: int) -> None:
        if operations < 0:
            raise ValueError("operation count cannot be negative")
        if bits < 1:
            raise ValueError("bit-width must be at least 1")
        self.records.append(OperationRecord(name, int(operations), int(bits)))

    def extend(self, other: "BitOpsCounter") -> None:
        self.records.extend(other.records)

    # ------------------------------------------------------------------ #
    @property
    def total_operations(self) -> int:
        return sum(record.operations for record in self.records)

    @property
    def total_bit_operations(self) -> int:
        return sum(record.bit_operations for record in self.records)

    def giga_bit_operations(self) -> float:
        """Total BitOPs in units of 10^9 (the "GBitOPs" column of the tables)."""
        return self.total_bit_operations / 1e9

    def operation_weighted_bits(self) -> float:
        """Average bit-width weighted by the number of operations."""
        operations = self.total_operations
        if operations == 0:
            return float(FP32_BITS)
        return self.total_bit_operations / operations

    def per_function(self) -> Dict[str, int]:
        """BitOPs broken down per function name."""
        breakdown: Dict[str, int] = {}
        for record in self.records:
            breakdown[record.name] = breakdown.get(record.name, 0) + record.bit_operations
        return breakdown

    def __repr__(self) -> str:
        return (f"BitOpsCounter(functions={len(self.records)}, "
                f"GBitOPs={self.giga_bit_operations():.3f})")


def average_bits(component_bits: Iterable[int],
                 weights: Optional[Iterable[float]] = None) -> float:
    """Unweighted (or weighted) mean bit-width over the architecture components."""
    bits = list(component_bits)
    if not bits:
        return float(FP32_BITS)
    if weights is None:
        return float(sum(bits)) / len(bits)
    weights = list(weights)
    total_weight = sum(weights)
    if total_weight <= 0:
        return float(sum(bits)) / len(bits)
    return float(sum(b * w for b, w in zip(bits, weights)) / total_weight)


def conv_bit_operations(layer, prefix: str, bits: Callable[[str], int],
                        n_src: int, n_dst: int, nnz: Sequence[int],
                        incoming_bits: int = FP32_BITS) -> Tuple[BitOpsCounter, int]:
    """BitOPs records of one convolution layer — the repo's only accountant.

    ``Quant*Conv.bit_operations`` (the FP32 model passes 32 for every
    width) and the serving sessions both call this, so the FP32 row, the
    quantized rows and the serving reports of a table are the same function
    of the same layer.  The convention:

    * a function's width is ``min(max(operand widths), 32)``;
    * a linear over ``rows`` rows costs ``2 * rows * in * out``, plus
      ``rows * out`` wherever a bias is applied (GAT's post-merge bias is
      charged to its transform);
    * an aggregation costs ``2 * nnz * width`` with ``nnz`` of the operator
      actually applied (normalised adjacency with self loops for gcn / tag,
      no self loops for sage / gin, edges plus self loops for attention);
    * an FP32 ``input`` point passes the incoming width through (only the
      first layer quantizes its input); attention scores and softmax stay
      FP32.

    ``layer`` describes the shape — a ``Quant*Conv`` or a serving
    ``LayerPlan``: ``conv_type``, ``in_features``, ``out_features``,
    ``has_bias`` (whether the family's bias terms are present) and, where
    the family has them, ``hidden_features`` (gin) or ``heads`` /
    ``head_dim`` (attention).  ``bits`` maps an artifact slot (quantization
    point or weight matrix) to its width, ``n_src`` / ``n_dst`` are the
    source / target rows and ``nnz`` the applied operator's non-zeros, one
    entry per hop.
    Records are named ``<prefix>.<function>``; returns them with the width
    of the layer's output.
    """
    counter = BitOpsCounter()
    family, bias = layer.conv_type, layer.has_bias

    def add(name: str, operations: int, *operands: int) -> None:
        counter.add(f"{prefix}.{name}", operations, min(max(operands), FP32_BITS))

    def linear(rows: int, fan_in: int, fan_out: int, biased: bool = False) -> int:
        return linear_operations(rows, fan_in, fan_out, bias and biased)

    fan_in, fan_out = layer.in_features, layer.out_features
    x_bits = bits("input")
    if x_bits >= FP32_BITS:
        x_bits = incoming_bits
    if family == "gcn":
        add("transform", linear(n_src, fan_in, fan_out, True), x_bits, bits("weight"))
        add("aggregate", 2 * nnz[0] * fan_out, bits("adjacency"), bits("linear_out"))
        return counter, bits("aggregate_out")
    if family == "sage":
        add("aggregate", 2 * nnz[0] * fan_in, bits("adjacency"), x_bits)
        add("transform_root", linear(n_dst, fan_in, fan_out, True), x_bits, bits("root"))
        add("transform_neighbour", linear(n_dst, fan_in, fan_out),
            bits("aggregate_out"), bits("neighbour"))
        return counter, bits("output")
    if family == "gin":
        hidden = layer.hidden_features
        add("aggregate", 2 * nnz[0] * fan_in, bits("adjacency"), x_bits)
        add("combine", 2 * n_dst * fan_in, bits("adjacency"), x_bits)
        add("mlp0", linear(n_dst, fan_in, hidden, True), bits("aggregate_out"), bits("mlp0"))
        add("mlp1", linear(n_dst, hidden, fan_out, True), bits("mlp0_out"), bits("mlp1"))
        return counter, bits("mlp1_out")
    if family == "tag":
        add("transform_hop0", linear(n_dst, fan_in, fan_out, True), x_bits, bits("hop0"))
        for hop, hop_nnz in enumerate(nnz, start=1):
            add(f"aggregate_hop{hop}", 2 * hop_nnz * fan_in, bits("adjacency"), x_bits)
            x_bits = bits("hop_out")
            add(f"transform_hop{hop}", linear(n_dst, fan_in, fan_out), x_bits,
                bits(f"hop{hop}"))
        return counter, bits("output")

    # Attention: ``width`` is the pre-merge feature width (``out_features``
    # under concat, ``heads * out_features`` under mean), ``edges`` one
    # message per edge including every target's self loop.
    heads, head_dim, edges = layer.heads, layer.head_dim, nnz[0]
    width = heads * head_dim
    if family == "gat":
        add("transform", linear(n_src, fan_in, width) + (n_dst * fan_out if bias else 0),
            x_bits, bits("weight"))
        # two per-head projections per node, leaky-relu + softmax per edge
        score, messages = 4 * n_src * width + 6 * edges * heads, "linear_out"
    elif family == "transformer":
        for name in ("query", "key", "value"):
            add(f"transform_{name}", linear(n_src, fan_in, width, name == "value"),
                x_bits, bits(name))
        # one head_dim-wide dot product plus scale/softmax per edge per head
        score, messages = (2 * head_dim + 5) * edges * heads, "value_out"
    else:
        raise KeyError(f"unknown conv type {family!r}")
    add("score", score, FP32_BITS)
    add("aggregate", 2 * edges * width, bits("attention"), bits(messages))
    return counter, bits("aggregate_out")
