#!/usr/bin/env python
"""Combining MixQ-GNN with Degree-Quant (the paper's Table 4 experiment).

MixQ-GNN chooses *which bit-width* each component uses; Degree-Quant decides
*how* node features are quantized (protecting high in-degree nodes during
training).  The two compose through the ``quantizer_factory`` hook: MixQ
searches over DQ quantizers, and the final quantized model trains with
degree-aware protection.

It doubles as a CI smoke test: it asserts that the highest in-degree node
gets the largest protection probability ``p_max``, the lowest gets
``p_min``, and that both searched models land inside the bit-width range.

Run with:  python examples/degree_quant_integration.py
"""

from __future__ import annotations

import numpy as np

from repro.core import MixQNodeClassifier
from repro.graphs.datasets import load_cora
from repro.quant.degree_quant import degree_quant_factory, degree_protection_probabilities

P_MIN, P_MAX = 0.0, 0.1
BIT_CHOICES = (2, 4, 8)


def main() -> None:
    graph = load_cora(scale=0.2, seed=0)
    probabilities = degree_protection_probabilities(graph, p_min=P_MIN, p_max=P_MAX)
    degrees = graph.in_degrees()
    most, least = probabilities.argmax(), probabilities.argmin()
    print(f"Graph: {graph}")
    print(f"Highest in-degree node: degree={degrees[most]}, "
          f"protection probability={probabilities[most]:.3f}")
    print(f"Lowest in-degree node: degree={degrees[least]}, "
          f"protection probability={probabilities[least]:.3f}\n")
    # several nodes can share the extreme degree; the ranking gives the
    # extreme probability to one of them
    assert degrees[most] == degrees.max() and np.isclose(probabilities[most], P_MAX)
    assert degrees[least] == degrees.min() and np.isclose(probabilities[least], P_MIN)

    for use_dq in (False, True):
        factory_kwargs = {}
        if use_dq:
            factory_kwargs["quantizer_factory"] = degree_quant_factory(
                rng=np.random.default_rng(0))
        mixq = MixQNodeClassifier("gcn", graph.num_features, 16, graph.num_classes,
                                  num_layers=2, bit_choices=BIT_CHOICES, lambda_value=0.1,
                                  seed=0, **factory_kwargs)
        result = mixq.fit(graph, search_epochs=40, train_epochs=80, lr=0.02)
        name = "MixQ + DQ" if use_dq else "MixQ (native)"
        print(f"{name:<14} accuracy={result.accuracy:.3f}  bits={result.average_bits:.2f}  "
              f"GBitOPs={result.giga_bit_operations:.4f}")
        assert min(BIT_CHOICES) <= result.average_bits <= max(BIT_CHOICES)


if __name__ == "__main__":
    main()
