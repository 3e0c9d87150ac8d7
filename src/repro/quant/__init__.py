"""Quantization substrate: quantizers, integer message passing, baselines.

The public surface mirrors the decomposition of the paper:

* :class:`AffineQuantizer` — quantization-aware-training quantizer with STE
  gradients (Equations 3-4).
* :mod:`repro.quant.integer_mp` — Theorem 1: exact integer message passing.
* :mod:`repro.quant.qmodules` — fixed-bit-width quantized GNN layers.
* :mod:`repro.quant.degree_quant` / :mod:`repro.quant.a2q` — the two prior
  methods the paper compares against (DQ and A²Q).
* :mod:`repro.quant.bitops` — the BitOPs efficiency metric (Section 5.1).

Deployment-time integer execution lives in :mod:`repro.serving`
(:class:`~repro.serving.QuantizedArtifact` + inference sessions).
"""

from repro.quant.quantizer import AffineQuantizer, QuantizationParameters
from repro.quant.integer_mp import (
    QuantizedMessagePassingResult,
    integer_message_passing,
    quantized_spmm,
)
from repro.quant.bitops import BitOpsCounter, OperationRecord, FP32_BITS
from repro.quant.qmodules import (
    ComponentBits,
    QuantGATConv,
    QuantGCNConv,
    QuantGINConv,
    QuantSAGEConv,
    QuantTAGConv,
    QuantTransformerConv,
    QuantLinear,
    QuantNodeClassifier,
    QuantGraphClassifier,
    uniform_assignment,
)
from repro.quant.degree_quant import DegreeQuantizer, degree_protection_probabilities
from repro.quant.a2q import A2QQuantizer, A2QNodeClassifier
from repro.quant.complexity import complexity_table

__all__ = [
    "AffineQuantizer",
    "QuantizationParameters",
    "integer_message_passing",
    "quantized_spmm",
    "QuantizedMessagePassingResult",
    "BitOpsCounter",
    "OperationRecord",
    "FP32_BITS",
    "ComponentBits",
    "QuantGATConv",
    "QuantGCNConv",
    "QuantGINConv",
    "QuantSAGEConv",
    "QuantTAGConv",
    "QuantTransformerConv",
    "QuantLinear",
    "QuantNodeClassifier",
    "QuantGraphClassifier",
    "uniform_assignment",
    "DegreeQuantizer",
    "degree_protection_probabilities",
    "A2QQuantizer",
    "A2QNodeClassifier",
    "complexity_table",
]
