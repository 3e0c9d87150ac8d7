"""The serving kernels (``vectorized``): same bits, fewer passes.

Four hot-path rewrites over the :class:`~repro.kernels.numpy_backend.
NumpyBackend` reference, each exact by construction:

* **Copy-free Theorem-1 aggregation** — the reference ``spmm`` converts
  its operator to int64 and takes the row sums ``Σ_j Q_A[i,j]`` through
  scipy.  The serving operator already holds int64 values, so this
  backend multiplies by it as it is and reads the row sums off the
  ``indptr`` segments of one int64 running sum — exact, as every integer
  stage here.
* **CSR edge aggregation** — ``np.add.at`` is a scalar scatter-loop in
  numpy; this backend sorts the edge list by target once (memoised per
  ``dst`` identity, shared with the softmax) into a CSR structure and
  runs each head's accumulation as one int64 sparse-dense matmul.
  Integer addition is exact and order-invariant, so however scipy's
  kernel associates the per-row sums the result is bit-identical to the
  reference scatter; the small per-target coefficient sums come from
  ``np.add.reduceat`` over the same sorted order.
* **Batched per-head score projection** — the reference loops over heads;
  here all heads evaluate in one ``(N, H, D)`` elementwise multiply +
  ``sum(axis=-1)``.  Both forms reduce each head's contiguous
  ``head_dim`` slice with the same pairwise tree, so the float scores
  match bit-for-bit (the contract pins the projection to multiply+sum
  precisely to make this legal — see the reference module docstring).
  The per-edge gather moves to ``np.take``, which reads the same rows
  much faster than fancy indexing.
* **Fused dequant-weight transform** — :meth:`~repro.kernels.
  numpy_backend.NumpyBackend.weight_matrix` recomputes ``W_int * S_w``
  per call; this backend memoises the dequantized matrix per plan
  identity, hoisting the dequantization out of the per-request path so a
  layer transform is one matmul (+ bias + requant), not a weight
  materialisation followed by one.

The softmax denominator keeps the reference's ordered ``np.add.at``
(float accumulation is reorder-sensitive); only the per-target max —
exact under any order — moves to ``np.maximum.reduceat``.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

import numpy as np
import scipy.sparse as sp

from repro.kernels.numpy_backend import (
    NumpyBackend,
    VectorOrScalar,
    as_column,
    as_row,
    check_multi_head_shapes,
)

#: Entry bound of the dequantized-weight memo: generous for any realistic
#: artifact (layers × weight slots).
_WEIGHT_ENTRIES = 64

#: Entry bound of the by-target memo, sized by what is reused — a
#: full-graph session's one edge list, a repeated request's hop stack, two
#: workers each mid-layer — since an entry pins a dead block's arrays.
_STRUCTURE_ENTRIES = 4

#: (order, indptr, segment starts, non-empty target ids) of one edge list
#: sorted by target: everything of a ``dst × src`` CSR operator except its
#: per-call columns and coefficients.
_ByTarget = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _build_by_target(dst: np.ndarray, num_dst: int) -> _ByTarget:
    """Stable sort of the edge targets plus the CSR row pointers;
    ``starts`` / ``targets`` index the non-empty rows ``reduceat`` walks."""
    order = np.argsort(dst, kind="stable")
    counts = np.bincount(np.asarray(dst, dtype=np.int64), minlength=num_dst)
    indptr = np.zeros(num_dst + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    targets = np.flatnonzero(counts)
    return order, indptr, indptr[targets], targets


class VectorizedBackend(NumpyBackend):
    """CSR-matmul + batched-head kernels: what every session serves with.

    Carries two bounded, identity-keyed memo dicts (dequantized weights,
    by-target edge structures).  Entries store the keyed object itself,
    so a recycled ``id()`` can never alias a different array; both dicts
    are lock-guarded because sessions share this one instance across the
    serving engine's worker pool.
    """

    name = "vectorized"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._weights: Dict[int, Tuple[object, np.ndarray]] = {}  # guarded-by: self._lock
        self._structures: Dict[
            int, Tuple[np.ndarray, int, _ByTarget]] = {}  # guarded-by: self._lock

    # ------------------------------------------------------------------ #
    # memoised ingredients
    # ------------------------------------------------------------------ #
    def weight_matrix(self, weight) -> np.ndarray:
        with self._lock:
            entry = self._weights.get(id(weight))
        if entry is not None and entry[0] is weight:
            return entry[1]
        matrix = weight.dequantized()
        with self._lock:
            self._weights[id(weight)] = (weight, matrix)
            while len(self._weights) > _WEIGHT_ENTRIES:
                self._weights.pop(next(iter(self._weights)))
        return matrix

    def _by_target(self, dst: np.ndarray, num_dst: int) -> _ByTarget:
        """Per-``dst``-identity memo of :func:`_build_by_target`.

        A layer's ``edge_softmax`` and ``edge_spmm`` present the same
        ``dst`` array, and so do full-graph sessions and cache-reused
        blocks run after run, so each edge list is sorted once.  A rebuild
        race is benign (the result is deterministic).
        """
        with self._lock:
            entry = self._structures.get(id(dst))
        if entry is not None and entry[0] is dst and entry[1] == num_dst:
            return entry[2]
        structure = _build_by_target(dst, num_dst)
        with self._lock:
            self._structures[id(dst)] = (dst, num_dst, structure)
            while len(self._structures) > _STRUCTURE_ENTRIES:
                self._structures.pop(next(iter(self._structures)))
        return structure

    # ------------------------------------------------------------------ #
    # integer aggregation
    # ------------------------------------------------------------------ #
    # reprolint: integer-stage
    def spmm(self, qa, sa: VectorOrScalar, qx: np.ndarray,
             sx: VectorOrScalar, zx: VectorOrScalar,
             sy: VectorOrScalar = 1.0, zy: VectorOrScalar = 0.0) -> np.ndarray:
        n_rows = qa.shape[0]
        n_cols = qx.shape[1]
        sa_col = as_column(sa, n_rows)
        sx_row = as_row(sx, n_cols)
        zx_row = as_row(zx, n_cols)
        sy_row = as_row(sy, n_cols)
        zy_row = as_row(zy, n_cols)

        # The serving operator already holds int64 values, so this is the
        # operator itself; a float-valued one (``quantized_spmm``'s form)
        # converts once.
        integer_adjacency = qa.csr.astype(np.int64, copy=False)
        integer_features = np.asarray(qx, dtype=np.int64)
        integer_product = np.asarray(integer_adjacency @ integer_features,
                                     dtype=np.float64)
        # Row sums of Q_A from the indptr segments of a running sum: exact
        # in int64 (a wrapped partial sum cancels in the difference).
        indptr = integer_adjacency.indptr
        running = np.zeros(integer_adjacency.data.shape[0] + 1, dtype=np.int64)
        np.cumsum(integer_adjacency.data, out=running[1:])
        row_sum_qa = (running[indptr[1:]] - running[indptr[:-1]]) \
            .astype(np.float64).reshape(-1, 1)

        main = sa_col * integer_product * sx_row
        correction_x = sa_col * row_sum_qa * (zx_row * sx_row)
        output = (main - correction_x) / sy_row + zy_row
        return output

    # reprolint: integer-stage
    def edge_spmm(self, q_edge: np.ndarray, s_edge: float, qx: np.ndarray,
                  sx: VectorOrScalar, zx: VectorOrScalar, src: np.ndarray,
                  dst: np.ndarray, num_dst: int) -> np.ndarray:
        q_edge_arr = np.asarray(q_edge, dtype=np.int64)
        qx_int = np.asarray(qx, dtype=np.int64)
        num_src = qx_int.shape[0]
        order, indptr, starts, targets = self._by_target(dst, num_dst)
        # Only the columns and coefficients change per call; the duplicate
        # column entries of the non-canonical CSR sum correctly under
        # matmul, and int64 addition is exact, so the product is
        # bit-identical to the reference scatter-add.
        indices = np.asarray(src, dtype=np.int64)[order]
        q_sorted = q_edge_arr[order]
        if q_edge_arr.ndim == 2:
            check_multi_head_shapes(q_edge_arr, qx_int)
            num_heads, n_cols = qx_int.shape[1], qx_int.shape[2]
            sx_axes = as_row(sx, n_cols).reshape(1, 1, n_cols)
            zx_axes = as_row(zx, n_cols).reshape(1, 1, n_cols)
            integer_product = np.empty((num_dst, num_heads, n_cols),
                                       dtype=np.int64)
            for head in range(num_heads):
                operator = sp.csr_matrix(
                    (q_sorted[:, head], indices, indptr),
                    shape=(num_dst, num_src))
                integer_product[:, head] = operator @ qx_int[:, head, :]
            row_sum_qe = np.zeros((num_dst, num_heads), dtype=np.int64)
            if starts.shape[0]:
                row_sum_qe[targets] = np.add.reduceat(q_sorted, starts,
                                                      axis=0)
            main = float(s_edge) * integer_product.astype(np.float64) * sx_axes
            correction_x = float(s_edge) \
                * row_sum_qe.astype(np.float64)[:, :, None] \
                * (zx_axes * sx_axes)
            return main - correction_x

        n_cols = qx_int.shape[1]
        sx_row = as_row(sx, n_cols)
        zx_row = as_row(zx, n_cols)
        operator = sp.csr_matrix((q_sorted.reshape(-1), indices, indptr),
                                 shape=(num_dst, num_src))
        integer_product = np.asarray(operator @ qx_int, dtype=np.int64)
        row_sum_qe = np.zeros(num_dst, dtype=np.int64)
        if starts.shape[0]:
            row_sum_qe[targets] = np.add.reduceat(q_sorted.reshape(-1),
                                                  starts)
        main = float(s_edge) * integer_product.astype(np.float64) * sx_row
        correction_x = float(s_edge) \
            * row_sum_qe.astype(np.float64).reshape(-1, 1) \
            * (zx_row * sx_row)
        return main - correction_x

    # ------------------------------------------------------------------ #
    # attention score stages
    # ------------------------------------------------------------------ #
    def edge_softmax(self, scores: np.ndarray, dst: np.ndarray,
                     num_dst: int) -> np.ndarray:
        order, _, starts, targets = self._by_target(dst, num_dst)
        per_target_max = np.full((num_dst,) + scores.shape[1:], -np.inf)
        if order.shape[0]:
            per_target_max[targets] = np.maximum.reduceat(
                scores[order], starts, axis=0)
        exponent = np.exp(scores - per_target_max[dst])
        # The denominator stays an ordered scatter-add: float accumulation
        # order is part of the contract (see the reference module).
        denominator = np.zeros((num_dst,) + scores.shape[1:])
        np.add.at(denominator, dst, exponent)
        return exponent / denominator[dst]

    def gat_scores(self, transformed: np.ndarray, attention_src: np.ndarray,
                   attention_dst: np.ndarray, src: np.ndarray,
                   dst: np.ndarray, heads: int, head_dim: int) -> np.ndarray:
        per_head = transformed.reshape(-1, heads, head_dim)
        projected_src = (per_head * attention_src.T[None, :, :]).sum(axis=-1)
        projected_dst = (per_head * attention_dst.T[None, :, :]).sum(axis=-1)
        # np.take is markedly faster than fancy indexing for the edge
        # gather and reads the same rows; the in-place add pairs the same
        # operands as ``a[src] + b[dst]``, so the bits cannot differ.
        scores = np.take(projected_src, src, axis=0)
        scores += np.take(projected_dst, dst, axis=0)
        return scores
