"""Multi-head attention helpers of the GAT and transformer convolutions.

Per-edge coefficients carry one score column per head, shape ``(E, H)`` on
the canonical edge list (:func:`~repro.gnn.attention.attention_edges`).
Head outputs merge by ``concat`` (hidden layers; per-head width
``out_features // heads``) or ``mean`` (output layers; per-head width
``out_features``), so the merged layer width is always ``out_features``
and ``heads`` stays an internal knob.  ``heads=1`` is bit-identical to the
single-head layer.  The layers are
:class:`~repro.quant.qmodules.QuantGATConv` and
:class:`~repro.quant.qmodules.QuantTransformerConv`.
"""

from __future__ import annotations

from repro.tensor.tensor import Tensor


def head_scores(transformed: Tensor, vectors: Tensor, heads: int,
                head_dim: int) -> Tensor:
    """Per-head score projections ``(N, H)``: column ``h`` is ``X_h @ a_h``.

    ``transformed`` is the ``(N, H * D)`` concatenation of the per-head
    feature slices and ``vectors`` the ``(D, H)`` attention parameters.  The
    single-head case is a plain matmul — multi-head slices each head's
    feature block out first, which for ``heads=1`` degenerates to the same
    product bit-for-bit.
    """
    if heads == 1:
        return transformed.matmul(vectors)
    columns = [transformed[:, h * head_dim:(h + 1) * head_dim]
               .matmul(vectors[:, h:h + 1]) for h in range(heads)]
    return Tensor.concatenate(columns, axis=1)


def merge_heads(aggregated: Tensor, heads: int, head_dim: int,
                head_merge: str) -> Tensor:
    """Merge per-head aggregations ``(N, H, D)`` into ``(N, out_features)``.

    ``concat`` flattens the head axis (a pure reshape); ``mean`` averages
    over it.  ``heads=1`` always takes the reshape path, which is the
    identity on the stored values.
    """
    if head_merge == "mean" and heads > 1:
        return aggregated.mean(axis=1)
    return aggregated.reshape(aggregated.shape[0], heads * head_dim)
