"""Continuous relaxation of the bit-width choice (paper Equation 6).

Every quantizable component gets one :class:`RelaxedQuantizer` holding one
quantizer per candidate bit-width ``b_i`` and a learnable relaxation
parameter vector ``alpha``.  The forward pass produces

``o(x) = sum_i softmax(alpha)_i * Q^f_{b_i}(x)``

so gradients flow both into the network weights (through the STE fake
quantizers) and into ``alpha`` (through the mixture weights).  After the
search, :meth:`selected_bits` returns the arg-max bit-width.

The relaxed architecture of Algorithm 1 is the quantized architecture of
:mod:`repro.quant.qmodules` built with :func:`mixture_quantizer_factory`:
a relaxed quantizer is a drop-in module at the site of the fixed-bit
quantizer it replaces.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.module import Module, ModuleList, Parameter
from repro.quant.qmodules import QuantizerFactory, default_quantizer_factory
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class RelaxedQuantizer(Module):
    """Softmax mixture over fake quantizers with different bit-widths.

    Parameters
    ----------
    bit_choices:
        Candidate bit-widths ``B`` (e.g. ``[2, 4, 8]``).
    kind:
        Quantizer kind forwarded to the factory: ``"activation"``,
        ``"weight"`` or ``"adjacency"``.
    quantizer_factory:
        Builds the underlying quantizer for each bit-width; defaults to the
        native QAT quantizers, and accepts the Degree-Quant factory for the
        "MixQ + DQ" integration.
    alpha_init:
        Initial value of every relaxation parameter (uniform mixture).
    """

    def __init__(self, bit_choices: Sequence[int], kind: str = "activation",
                 quantizer_factory: QuantizerFactory = default_quantizer_factory,
                 alpha_init: float = 0.0):
        super().__init__()
        if not bit_choices:
            raise ValueError("bit_choices must not be empty")
        self.bit_choices: List[int] = [int(b) for b in bit_choices]
        self.kind = kind
        self.quantizers = ModuleList(
            [quantizer_factory(bits, kind) for bits in self.bit_choices])
        self.alpha = Parameter(
            np.full(len(self.bit_choices), alpha_init, dtype=np.float32), name="alpha")
        #: Number of elements of the last tensor seen; used by the penalty C(T).
        self.last_numel: int = 0

    # ------------------------------------------------------------------ #
    def probabilities(self) -> Tensor:
        """The softmax mixture weights as a differentiable tensor."""
        return F.softmax(self.alpha, axis=-1)

    def probability_values(self) -> np.ndarray:
        exps = np.exp(self.alpha.data - self.alpha.data.max())
        return exps / exps.sum()

    def expected_bits(self) -> Tensor:
        """Differentiable expected bit-width ``sum_i p_i b_i``."""
        bits = Tensor(np.asarray(self.bit_choices, dtype=np.float32))
        return (self.probabilities() * bits).sum()

    def expected_bits_value(self) -> float:
        return float(np.dot(self.probability_values(), self.bit_choices))

    def selected_bits(self) -> int:
        """Arg-max bit-width (the final selection after the search)."""
        return int(self.bit_choices[int(np.argmax(self.alpha.data))])

    #: What ``component_bits()`` / ``bit_operations()`` of the host layer read:
    #: a relaxed model reports (and exports) its current arg-max assignment.
    bits = property(selected_bits)

    def penalty(self) -> Tensor:
        """The component's contribution to ``C`` (Equation 8), in megabytes."""
        numel = max(self.last_numel, 1)
        return self.expected_bits() * (numel / (1024.0 * 8.0 * 1024.0))

    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        self.last_numel = x.numel()
        probabilities = self.probabilities()
        output = None
        for index, quantizer in enumerate(self.quantizers):
            term = quantizer(x) * probabilities[index]
            output = term if output is None else output + term
        return output

    def mixture_terms(self, values: List[Tensor]) -> Tensor:
        """Mix externally-computed per-bit-width results with the current weights.

        Used by the message-passing layers for the adjacency component,
        where each candidate bit-width produces a separate aggregation result
        (one quantized adjacency per choice) that must be blended by the same
        softmax.
        """
        if len(values) != len(self.bit_choices):
            raise ValueError("one value per bit choice is required")
        probabilities = self.probabilities()
        output = None
        for index, value in enumerate(values):
            term = value * probabilities[index]
            output = term if output is None else output + term
        return output

    def __repr__(self) -> str:
        return (f"RelaxedQuantizer(bits={self.bit_choices}, kind={self.kind!r}, "
                f"selected={self.selected_bits()})")


def mixture_quantizer_factory(bit_choices: Sequence[int],
                              base_factory: QuantizerFactory = default_quantizer_factory
                              ) -> QuantizerFactory:
    """The quantizer factory that turns a quantized architecture into its relaxation.

    Every quantization point gets a :class:`RelaxedQuantizer` over
    ``bit_choices`` whose candidates come from ``base_factory`` (native QAT
    by default, Degree-Quant for "MixQ + DQ").  The bit-width the layer asks
    for is ignored: choosing it is what the search is for.
    """
    def factory(bits: int, kind: str) -> Module:
        return RelaxedQuantizer(bit_choices, kind, base_factory)

    return factory
