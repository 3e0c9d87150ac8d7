#!/usr/bin/env python
"""Theorem 1 in action: exact integer message passing.

The example quantizes the normalised adjacency and the node features of a
citation graph, performs the aggregation ``A @ X`` entirely with integer
sparse-dense arithmetic plus the rank-one corrections of Theorem 1, and
verifies that the result matches the fake-quantized floating-point product
— the guarantee the theorem provides.  The two agree up to round-off only:
the reference stores the fake-quantized adjacency in float32, as the QAT
model does, so each of its entries is off by at most 2**-24 relative.
The exit status is non-zero if any output entry misses the fake-quantized
product by more than that bound.

Run with:  python examples/integer_inference.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro.graphs.datasets import load_citeseer
from repro.quant import AffineQuantizer
from repro.quant.integer_mp import (
    fake_quantized_reference,
    integer_message_passing,
)


#: Relative round-off allowed per product term: the float32 storage of the
#: reference's fake-quantized adjacency (2**-24), doubled for the float64
#: reassociation of Theorem 1's rank-one corrections.
ROUND_OFF = 2.0 ** -23


def main() -> int:
    graph = load_citeseer(scale=0.15, seed=0)
    adjacency = graph.normalized_adjacency()
    print(f"Graph: {graph}")
    print(f"Normalised adjacency: {adjacency}")

    failed = []
    for bits in (8, 4, 2):
        quantizer_a = AffineQuantizer(bits=bits, symmetric=True)
        quantizer_x = AffineQuantizer(bits=bits)
        result = integer_message_passing(adjacency, graph.x, quantizer_a, quantizer_x)
        reference = fake_quantized_reference(adjacency, graph.x, quantizer_a, quantizer_x)
        error = np.abs(result.dequantized_output - reference)
        magnitude = abs(adjacency.csr) @ np.abs(graph.x.astype(np.float64))
        bound = ROUND_OFF * magnitude
        if np.any(error > bound):
            failed.append(bits)
        max_error = float(error.max())
        quantization_error = float(
            np.abs(reference - adjacency.csr @ graph.x).mean())
        print(f"INT{bits}: theorem-vs-fake-quant max error = {max_error:.2e} "
              f"(round-off bound {float(bound.max()):.2e}), "
              f"mean quantization error vs FP32 = {quantization_error:.4f}")
        print(f"      integer product dtype: {result.integer_product.dtype}, "
              f"scales: S_a={float(result.scale_a):.4f}, S_x={float(result.scale_x):.4f}")
    if failed:
        print(f"Theorem 1 misses the fake-quantized product beyond round-off "
              f"at INT{failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
