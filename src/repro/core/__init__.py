"""MixQ-GNN: differentiable mixed-precision bit-width search for GNNs.

This package is the paper's primary contribution:

* :class:`RelaxedQuantizer` — a softmax mixture over per-bit-width quantizers
  (the continuous relaxation of Equation 6).
* :mod:`repro.core.penalty` — the memory-proportional penalty ``C(T)``
  (Equation 8) and its aggregation over an architecture.
* :func:`mixture_quantizer_factory` — the quantizer factory that puts a
  relaxed quantizer at every quantization point of the quantized modules in
  :mod:`repro.quant.qmodules`; the relaxed architecture is that one module
  family built with it, not a second family.
* :mod:`repro.core.build` — "Build Relaxed Architecture" from Algorithm 1.
* :mod:`repro.core.selection` — the bit-width search loop ("Find Bit-widths").
* :mod:`repro.core.mixq` — the high-level :class:`MixQNodeClassifier` /
  :class:`MixQGraphClassifier` APIs (search, finalize, train, evaluate).
* :mod:`repro.core.search_space` — exhaustive/random assignment enumeration
  and Pareto-front extraction (Figures 2, 3 and Table 10).
"""

from repro.core.relaxed_quantizer import RelaxedQuantizer, mixture_quantizer_factory
from repro.core.penalty import memory_penalty_mb, total_penalty
from repro.core.build import build_relaxed_node_classifier, build_relaxed_graph_classifier
from repro.core.selection import BitWidthSearchResult, search_node_bitwidths, search_graph_bitwidths
from repro.core.mixq import MixQNodeClassifier, MixQGraphClassifier, MixQResult
from repro.core.search_space import (
    enumerate_assignments,
    random_assignment,
    pareto_front,
)

__all__ = [
    "RelaxedQuantizer",
    "mixture_quantizer_factory",
    "memory_penalty_mb",
    "total_penalty",
    "build_relaxed_node_classifier",
    "build_relaxed_graph_classifier",
    "BitWidthSearchResult",
    "search_node_bitwidths",
    "search_graph_bitwidths",
    "MixQNodeClassifier",
    "MixQGraphClassifier",
    "MixQResult",
    "enumerate_assignments",
    "random_assignment",
    "pareto_front",
]
