"""Aggregation-Aware Quantization (Zhu et al., ICLR 2023) — the A²Q baseline.

A²Q assigns every node its own learnable quantization *scale* and *bit-width*
and adds a memory-size penalty so the average bit-width stays small.  This
reimplementation keeps the defining characteristics the paper's comparison
relies on:

* per-node learnable scale ``s_v`` and continuous bit-width ``b_v`` trained
  with straight-through gradients;
* a memory penalty ``lambda * sum_v b_v * f`` driving compression;
* the parameter count grows with the number of nodes (the over-
  parameterisation the paper's complexity table calls out).

The node-classification wrapper :class:`A2QNodeClassifier` quantizes node
features entering every message-passing layer with the per-node quantizers
while keeping weights at INT8, mirroring the reference implementation's
aggregation-focused design.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.graphs.graph import Graph
from repro.nn.activations import Dropout, ReLU
from repro.nn.module import Module, ModuleList, Parameter
from repro.quant.bitops import BitOpsCounter, FP32_BITS
from repro.quant.qmodules import QuantGCNConv, default_quantizer_factory
from repro.tensor.tensor import Tensor


class A2QQuantizer(Module):
    """Per-node learnable quantizer with learnable continuous bit-widths."""

    def __init__(self, num_nodes: int, init_bits: float = 4.0, min_bits: float = 2.0,
                 max_bits: float = 8.0, init_scale: float = 0.05):
        super().__init__()
        self.num_nodes = num_nodes
        self.min_bits = min_bits
        self.max_bits = max_bits
        self.log_scale = Parameter(
            np.full((num_nodes, 1), np.log(init_scale), dtype=np.float32), name="log_scale")
        self.bit_width = Parameter(
            np.full((num_nodes, 1), init_bits, dtype=np.float32), name="bit_width")

    def effective_bits(self) -> np.ndarray:
        """Rounded, clipped per-node bit-widths (used at inference time)."""
        return np.clip(np.rint(self.bit_width.data), self.min_bits, self.max_bits)

    def average_bits(self) -> float:
        return float(self.effective_bits().mean())

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[0] != self.num_nodes:
            return x
        scale = self.log_scale.exp()
        bits = self.bit_width.clamp(self.min_bits, self.max_bits)
        # Signed grid: the per-node clipping bound is 2^(b-1) - 1.
        bound = ((bits - 1.0) * float(np.log(2.0))).exp() - 1.0
        quantized = (x / scale).round_ste()
        quantized = _clamp_rowwise(quantized, bound)
        return quantized * scale

    def memory_penalty(self, num_features: int) -> Tensor:
        """Differentiable memory-size penalty in megabytes."""
        bits = self.bit_width.clamp(self.min_bits, self.max_bits)
        return bits.sum() * (num_features / (1024.0 * 8.0 * 1024.0))


def _clamp_rowwise(x: Tensor, bound: Tensor) -> Tensor:
    """Clamp every row of ``x`` into ``[-bound_row, bound_row]`` differentiably."""
    upper = bound
    lower = -bound
    below = (x - lower).relu() + lower
    return upper - (upper - below).relu()


class A2QNodeClassifier(Module):
    """GCN node classifier with A²Q per-node quantization on layer inputs."""

    def __init__(self, layer_dims: List[tuple], num_nodes: int, dropout: float = 0.5,
                 init_bits: float = 4.0, weight_bits: int = 8,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        convs: List[Module] = []
        quantizers: List[A2QQuantizer] = []
        for index, (fan_in, fan_out) in enumerate(layer_dims):
            bits = {"weight": weight_bits, "linear_out": weight_bits,
                    "adjacency": FP32_BITS, "aggregate_out": FP32_BITS}
            convs.append(QuantGCNConv(fan_in, fan_out, bits, quantize_input=False,
                                      quantizer_factory=default_quantizer_factory, rng=rng))
            quantizers.append(A2QQuantizer(num_nodes, init_bits=init_bits))
        self.convs = ModuleList(convs)
        self.node_quantizers = ModuleList(quantizers)
        self.activation = ReLU()
        self.dropout = Dropout(dropout, rng=rng)
        self.weight_bits = weight_bits

    def forward(self, graph: Graph, x: Optional[Tensor] = None) -> Tensor:
        if x is None:
            x = Tensor(graph.x)
        num_layers = len(self.convs)
        for index, (conv, quantizer) in enumerate(zip(self.convs, self.node_quantizers)):
            x = quantizer(x)
            x = conv(x, graph)
            if index < num_layers - 1:
                x = self.activation(x)
                x = self.dropout(x)
        return x

    # ------------------------------------------------------------------ #
    def memory_penalty(self, graph: Graph) -> Tensor:
        """Total memory penalty over all per-node quantizers."""
        total = None
        for quantizer in self.node_quantizers:
            term = quantizer.memory_penalty(graph.num_features)
            total = term if total is None else total + term
        return total

    def average_bits(self) -> float:
        node_bits = [quantizer.average_bits() for quantizer in self.node_quantizers]
        return float(np.mean(node_bits))

    def bit_operations(self, graph: Graph) -> BitOpsCounter:
        counter = BitOpsCounter()
        incoming = FP32_BITS
        for index, (conv, quantizer) in enumerate(zip(self.convs, self.node_quantizers)):
            activation_bits = int(round(quantizer.average_bits()))
            layer_counter, incoming = conv.bit_operations(
                graph, max(activation_bits, 1), f"conv{index}")
            counter.extend(layer_counter)
        return counter

    def num_quantization_parameters(self) -> int:
        """Number of learnable quantization parameters (grows with the graph)."""
        return sum(q.log_scale.size + q.bit_width.size for q in self.node_quantizers)
