"""Building relaxed architectures ("Build Relaxed Architecture", Algorithm 1).

Algorithm 1 walks the modules of a base architecture and adds input, output,
aggregation and parameter quantizers with ``|B|`` choices each.  The base
architecture here is the quantized module family of
:mod:`repro.quant.qmodules` (GCN, GIN, GraphSAGE, GAT, TAG, Transformer),
which already names every quantization point — input quantizers only on the
first module, aggregation quantizers only on message-passing layers, weight
quantizers wherever learnable parameters exist — and asks a quantizer
factory what to put there.  The builders therefore construct that same
architecture with the mixture factory
(:func:`~repro.core.relaxed_quantizer.mixture_quantizer_factory`): one
:class:`~repro.core.relaxed_quantizer.RelaxedQuantizer` per component, and
``component_bits()`` of the result is the arg-max assignment ``S``.

The same family built with an empty assignment is the FP32 model the
paper's savings are measured against (:func:`build_node_model`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.relaxed_quantizer import mixture_quantizer_factory
from repro.quant.qmodules import (
    QuantGraphClassifier,
    QuantNodeClassifier,
    QuantizerFactory,
    default_quantizer_factory,
)


def layer_dimensions(in_features: int, hidden_features: int, num_classes: int,
                     num_layers: int) -> List[Tuple[int, int]]:
    """Feature dimensions of an ``num_layers`` stack ending in ``num_classes``."""
    if num_layers < 1:
        raise ValueError("architectures need at least one layer")
    if num_layers == 1:
        return [(in_features, num_classes)]
    dims = [(in_features, hidden_features)]
    dims.extend((hidden_features, hidden_features) for _ in range(num_layers - 2))
    dims.append((hidden_features, num_classes))
    return dims


def build_node_model(layer_type: str, in_features: int, hidden_features: int,
                     num_classes: int, num_layers: int = 2, dropout: float = 0.5,
                     heads: int = 1, head_merge: str = "concat",
                     rng: Optional[np.random.Generator] = None) -> QuantNodeClassifier:
    """The FP32 node classifier of a layer family (the paper's FP32 rows).

    It is the family built with an empty assignment: every quantizer is an
    :class:`~repro.quant.quantizer.IdentityQuantizer`, and
    ``bit_operations`` reports every function at 32 bits.  One layer maps
    straight from input features to class logits; deeper models insert
    ``hidden_features``-wide intermediate layers.  ``heads`` applies to the
    attention families only: hidden layers merge by ``head_merge``, the
    output layer by ``mean``.  TAG layers take 3 hops.
    """
    return QuantNodeClassifier.from_assignment(
        layer_dimensions(in_features, hidden_features, num_classes, num_layers),
        layer_type.lower(), {}, dropout=dropout, heads=heads,
        head_merge=head_merge, rng=rng)


def build_relaxed_node_classifier(conv_type: str, layer_dims: Sequence[Tuple[int, int]],
                                  bit_choices: Sequence[int], dropout: float = 0.5,
                                  quantizer_factory: QuantizerFactory = default_quantizer_factory,
                                  hops: int = 3, heads: int = 1,
                                  head_merge: str = "concat",
                                  rng: Optional[np.random.Generator] = None
                                  ) -> QuantNodeClassifier:
    """Build the relaxed (searchable) node classifier for a layer family.

    ``conv_type`` is one of ``"gcn"`` / ``"gin"`` / ``"sage"`` / ``"gat"`` /
    ``"tag"`` / ``"transformer"``; ``layer_dims`` is a list of
    ``(in_features, out_features)`` pairs, ``hops`` only applies to
    ``"tag"`` and ``heads`` / ``head_merge`` only to the attention families
    (hidden layers merge by ``head_merge``, the output layer by ``mean``).
    The first layer receives an input quantizer; intermediate aggregation
    outputs keep their quantizers so the component count matches the
    paper's example (nine components for a two-layer GCN).
    """
    return QuantNodeClassifier.from_assignment(
        list(layer_dims), conv_type.lower(), {}, dropout=dropout,
        quantizer_factory=mixture_quantizer_factory(bit_choices, quantizer_factory),
        hops=hops, heads=heads, head_merge=head_merge, rng=rng)


def build_relaxed_graph_classifier(in_features: int, hidden_features: int,
                                   num_classes: int, bit_choices: Sequence[int],
                                   num_layers: int = 5, pooling: str = "max",
                                   dropout: float = 0.5,
                                   quantizer_factory: QuantizerFactory = default_quantizer_factory,
                                   rng: Optional[np.random.Generator] = None
                                   ) -> QuantGraphClassifier:
    """Build the relaxed GIN graph classifier used by the graph-level tasks."""
    return QuantGraphClassifier(
        in_features, hidden_features, num_classes, {}, num_layers=num_layers,
        pooling=pooling, dropout=dropout,
        quantizer_factory=mixture_quantizer_factory(bit_choices, quantizer_factory),
        rng=rng)
