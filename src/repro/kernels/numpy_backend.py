"""The ``numpy`` reference backend: the kernel contract, bit-defined.

Every kernel backend implements the five hot-path operations of the
integer serving stack.  This module holds the reference implementation —
plain numpy, no caching, no reassociation — and its outputs *are* the
contract: an alternative backend is correct iff it reproduces this
backend bit-for-bit on the integer path (and to float round-off nowhere,
because the float stages below are written so that any compliant backend
can match them exactly too; the parity matrix asserts full bit-identity
of served logits across backends).

The bit-identity argument, operation by operation:

* :meth:`~NumpyBackend.spmm` / :meth:`~NumpyBackend.edge_spmm` — the
  heavy accumulation is **int64**, and integer addition is exact and
  order-invariant (overflow wraps identically in any order), so a backend
  may reassociate, segment, tile or jit the accumulation freely.  Only
  the closing rank-one corrections touch floating point, and those are
  elementwise expressions with one fixed evaluation order.
* :meth:`~NumpyBackend.edge_softmax` — float reductions are *not*
  reorder-safe, so the denominator scatter-add is part of the contract:
  it must accumulate in the canonical edge order
  (:func:`~repro.gnn.attention.attention_edges`).  The per-target *max*
  may be computed in any order (max is exact), which is what gives
  vectorized backends room to speed this stage up.
* :meth:`~NumpyBackend.gat_scores` — the per-head projection is defined
  as an elementwise multiply + ``sum(axis=-1)`` over each head's feature
  slice.  That pairwise-summed form produces the same reduction tree
  whether a backend loops over heads (this module) or batches all heads
  as ``(N, H, D)`` arrays (the vectorized backend), so both are
  bit-identical — which a BLAS ``matvec`` would not guarantee.
* :meth:`~NumpyBackend.linear_requant` / :meth:`~NumpyBackend.weight_matrix`
  — dense transform + optional bias + optional requantization onto a
  stored grid.  Backends may cache the dequantized weight (it is a pure
  function of the plan) but must not change the matmul operands.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

VectorOrScalar = Union[float, np.ndarray]


def as_column(vector: VectorOrScalar, length: int) -> np.ndarray:
    """Broadcast a scalar or length-``length`` vector to a column."""
    array = np.asarray(vector, dtype=np.float64).reshape(-1)
    if array.size == 1:
        array = np.full(length, float(array[0]))
    if array.size != length:
        raise ValueError(f"expected scalar or length-{length} vector, got {array.size}")
    return array.reshape(length, 1)


def as_row(vector: VectorOrScalar, length: int) -> np.ndarray:
    """Broadcast a scalar or length-``length`` vector to a row."""
    return as_column(vector, length).reshape(1, length)


def quantize_onto(params, values: np.ndarray) -> np.ndarray:
    """Snap float values onto a stored integer grid (round-half-even)."""
    scale, zero_point = params.as_scalars()
    return np.clip(np.rint(values / scale) + zero_point, params.qmin, params.qmax)


def dequantize_from(params, integers: np.ndarray) -> np.ndarray:
    """Map grid integers back to their float representatives."""
    scale, zero_point = params.as_scalars()
    return (integers - zero_point) * scale


class NumpyBackend:
    """Reference kernel backend (``get_backend("numpy")``).

    Stateless and allocation-per-call by design: nothing here may be
    faster than obvious, because this is the implementation every other
    backend is certified against.  Alternative backends subclass this and
    override individual kernels.
    """

    #: What ``session.backend_name`` reports; subclasses override.
    name = "numpy"

    # ------------------------------------------------------------------ #
    # dense transforms
    # ------------------------------------------------------------------ #
    def weight_matrix(self, weight) -> np.ndarray:
        """The float weight matrix of a :class:`~repro.serving.artifact.
        WeightPlan` (``W_int * S_w``).  Pure per plan, so backends may
        memoise it; the reference recomputes to stay allocation-honest."""
        return weight.dequantized()

    def linear_requant(self, x: np.ndarray, weight, params,
                       add_bias: bool = True
                       ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``x @ W (+ bias)`` then optional requantization onto ``params``.

        Returns ``(transformed, transformed_int)``; ``transformed_int`` is
        ``None`` when ``params`` is (the layer keeps the transform in full
        precision) and otherwise holds the grid integers the integer
        aggregation consumes.
        """
        transformed = x @ self.weight_matrix(weight)
        if add_bias and weight.bias is not None:
            transformed = transformed + weight.bias
        if params is None:
            return transformed, None
        transformed_int = quantize_onto(params, transformed)
        return dequantize_from(params, transformed_int), transformed_int

    # ------------------------------------------------------------------ #
    # integer aggregation (Theorem 1)
    # ------------------------------------------------------------------ #
    # reprolint: integer-stage
    def spmm(self, qa, sa: VectorOrScalar, qx: np.ndarray,
             sx: VectorOrScalar, zx: VectorOrScalar,
             sy: VectorOrScalar = 1.0, zy: VectorOrScalar = 0.0) -> np.ndarray:
        """Sparse fast path of Theorem 1 (symmetric adjacency, ``Z_a = 0``).

        The integer sparse-dense product runs on int64 arrays; only the
        rank-one corrections touch floating point, exactly as the theorem
        prescribes.
        """
        n_rows = qa.shape[0]
        n_cols = qx.shape[1]
        sa_col = as_column(sa, n_rows)
        sx_row = as_row(sx, n_cols)
        zx_row = as_row(zx, n_cols)
        sy_row = as_row(sy, n_cols)
        zy_row = as_row(zy, n_cols)

        integer_adjacency = qa.csr.astype(np.int64)
        integer_features = np.asarray(qx, dtype=np.int64)
        integer_product = np.asarray(integer_adjacency @ integer_features,
                                     dtype=np.float64)
        row_sum_qa = np.asarray(integer_adjacency.sum(axis=1),
                                dtype=np.float64).reshape(-1, 1)

        main = sa_col * integer_product * sx_row
        correction_x = sa_col * row_sum_qa * (zx_row * sx_row)
        output = (main - correction_x) / sy_row + zy_row
        return output

    # reprolint: integer-stage
    def edge_spmm(self, q_edge: np.ndarray, s_edge: float, qx: np.ndarray,
                  sx: VectorOrScalar, zx: VectorOrScalar, src: np.ndarray,
                  dst: np.ndarray, num_dst: int) -> np.ndarray:
        """Theorem 1 over an explicit edge list — the per-edge score plan.

        Multi-head form: ``q_edge`` shaped ``(E, H)`` with ``qx`` shaped
        ``(N, H, D)`` returns ``(num_dst, H, D)``; single-head ``(E,)`` /
        ``(N, D)`` is the squeezed ``H = 1`` special case.  The heavy
        accumulation is int64 (exact, order-invariant); only the rank-one
        zero-point correction is floating point.
        """
        q_edge_arr = np.asarray(q_edge, dtype=np.int64)
        qx_int = np.asarray(qx, dtype=np.int64)
        if q_edge_arr.ndim == 2:
            check_multi_head_shapes(q_edge_arr, qx_int)
            n_cols = qx_int.shape[2]
            sx_axes = as_row(sx, n_cols).reshape(1, 1, n_cols)
            zx_axes = as_row(zx, n_cols).reshape(1, 1, n_cols)
            integer_product = np.zeros((num_dst,) + qx_int.shape[1:],
                                       dtype=np.int64)
            np.add.at(integer_product, dst, q_edge_arr[:, :, None] * qx_int[src])
            row_sum_qe = np.zeros((num_dst, q_edge_arr.shape[1]), dtype=np.int64)
            np.add.at(row_sum_qe, dst, q_edge_arr)
            main = float(s_edge) * integer_product.astype(np.float64) * sx_axes
            correction_x = float(s_edge) * row_sum_qe.astype(np.float64)[:, :, None] \
                * (zx_axes * sx_axes)
            return main - correction_x

        q_edge_int = q_edge_arr.reshape(-1)
        n_cols = qx_int.shape[1]
        sx_row = as_row(sx, n_cols)
        zx_row = as_row(zx, n_cols)

        integer_product = np.zeros((num_dst, n_cols), dtype=np.int64)
        np.add.at(integer_product, dst, q_edge_int[:, None] * qx_int[src])
        row_sum_qe = np.zeros(num_dst, dtype=np.int64)
        np.add.at(row_sum_qe, dst, q_edge_int)

        main = float(s_edge) * integer_product.astype(np.float64) * sx_row
        correction_x = float(s_edge) * row_sum_qe.astype(np.float64).reshape(-1, 1) \
            * (zx_row * sx_row)
        return main - correction_x

    # ------------------------------------------------------------------ #
    # attention score stages (float, but order-pinned — see module doc)
    # ------------------------------------------------------------------ #
    def edge_softmax(self, scores: np.ndarray, dst: np.ndarray,
                     num_dst: int) -> np.ndarray:
        """Numerically-shifted softmax of per-edge scores within each target.

        ``scores`` may carry trailing axes — the multi-head form ``(E, H)``
        normalises every head independently in one pass.  The denominator
        accumulates in edge order (the reorder-sensitive float stage every
        backend must preserve); the per-target max is order-free.
        """
        per_target_max = np.full((num_dst,) + scores.shape[1:], -np.inf)
        np.maximum.at(per_target_max, dst, scores)
        exponent = np.exp(scores - per_target_max[dst])
        denominator = np.zeros((num_dst,) + scores.shape[1:])
        np.add.at(denominator, dst, exponent)
        return exponent / denominator[dst]

    def gat_scores(self, transformed: np.ndarray, attention_src: np.ndarray,
                   attention_dst: np.ndarray, src: np.ndarray,
                   dst: np.ndarray, heads: int, head_dim: int) -> np.ndarray:
        """Raw (pre-activation) GAT scores, one ``(E, heads)`` column per head.

        ``attention_src`` / ``attention_dst`` are the ``(head_dim, heads)``
        projection vectors.  The per-node projection is an elementwise
        multiply + ``sum`` over each head's contiguous feature slice —
        the exact reduction tree a batched ``(N, H, D)`` evaluation also
        produces, which is what makes batching it bit-safe.
        """
        scores = np.empty((src.shape[0], heads))
        for head in range(heads):
            block = transformed[:, head * head_dim:(head + 1) * head_dim]
            projected_src = (block * attention_src[:, head]).sum(axis=-1)
            projected_dst = (block * attention_dst[:, head]).sum(axis=-1)
            scores[:, head] = projected_src[src] + projected_dst[dst]
        return scores


def check_multi_head_shapes(q_edge: np.ndarray, qx: np.ndarray) -> None:
    """Shared validation of the multi-head ``edge_spmm`` operand shapes."""
    if qx.ndim != 3 or qx.shape[1] != q_edge.shape[1]:
        raise ValueError(f"multi-head edge coefficients {q_edge.shape} "
                         f"need features shaped (N, H, D), got {qx.shape}")
