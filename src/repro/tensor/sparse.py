"""Sparse adjacency support.

Message passing in matrix form is a sparse-dense product ``A @ H``.  The
adjacency matrix is stored as a scipy CSR matrix wrapped in
:class:`SparseTensor`; :func:`spmm` differentiates with respect to the dense
operand (``dL/dH = A.T @ dY``) which is all the GNN layers need because the
adjacency values themselves are not learnable parameters.

The quantization stack additionally needs access to the raw non-zero values
of ``A`` (to quantize them) and a way to rebuild a sparse matrix with new
values, both of which :class:`SparseTensor` exposes.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.tensor.tensor import Tensor


class SparseTensor:
    """An immutable wrapper around a canonical ``scipy.sparse.csr_matrix``.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix (converted to float32 canonical CSR) or a
        dense numpy array.  :meth:`from_csr` wraps arrays that are already
        canonical instead.
    """

    def __init__(self, matrix: Union[sp.spmatrix, np.ndarray]):
        if isinstance(matrix, SparseTensor):
            matrix = matrix.csr
        if not sp.issparse(matrix):
            matrix = sp.csr_matrix(np.asarray(matrix, dtype=np.float32))
        self.csr: sp.csr_matrix = matrix.tocsr().astype(np.float32)
        self.csr.sum_duplicates()

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    @property
    def values(self) -> np.ndarray:
        """The non-zero values of the matrix (CSR data array)."""
        return self.csr.data

    def with_values(self, values: np.ndarray) -> "SparseTensor":
        """A sparse tensor on this one's sparsity pattern (shared, not
        copied) with new float32 values."""
        values = np.asarray(values, dtype=np.float32)
        if values.shape != self.csr.data.shape:
            raise ValueError(
                f"expected {self.csr.data.shape[0]} values, got {values.shape}")
        return SparseTensor.from_csr(values, self.csr.indices,
                                     self.csr.indptr, self.shape)

    def with_rows(self, rows: np.ndarray,
                  replacement: "SparseTensor") -> "SparseTensor":
        """Replace the given rows with the rows of ``replacement``.

        ``replacement`` is a ``(len(rows), num_cols)`` sparse matrix whose
        row ``i`` becomes row ``rows[i]`` of the result; every other row is
        carried over unchanged.  This is the incremental-update primitive
        behind :meth:`~repro.graphs.graph.Graph.apply_delta`: cost is one
        ``O(nnz)`` copy of each entry array, with no global re-sort and no
        per-entry index arithmetic, and — because CSR canonicalisation
        (duplicate summing, index sorting) acts on each row independently
        — the result is bit-identical to rebuilding the whole matrix from
        the edited edge list.
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        old = self.csr
        num_rows = old.shape[0]
        if rows.size and (rows.min() < 0 or rows.max() >= num_rows):
            raise ValueError(f"row ids must lie in [0, {num_rows})")
        if np.unique(rows).shape[0] != rows.shape[0]:
            raise ValueError("replacement rows must be duplicate-free")
        new_rows = replacement.csr
        if new_rows.shape != (rows.shape[0], old.shape[1]):
            raise ValueError(f"replacement must have shape "
                             f"({rows.shape[0]}, {old.shape[1]}), "
                             f"got {new_rows.shape}")
        if not rows.size:
            return self
        order = np.argsort(rows)
        rows, new_rows = rows[order], new_rows[order]
        counts = np.diff(old.indptr)
        counts[rows] = np.diff(new_rows.indptr)
        indptr = np.zeros(num_rows + 1, dtype=old.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        # Cut the entry arrays at both ends of every replaced row: the even
        # pieces are the runs of kept rows, carried over by plain copies;
        # the odd ones are the replaced rows' old entries, swapped for the
        # new ones.
        cuts = np.stack([old.indptr[rows], old.indptr[rows + 1]],
                        axis=1).reshape(-1)

        def splice(old_entries: np.ndarray, new_entries: np.ndarray):
            pieces = np.split(old_entries, cuts)
            pieces[1::2] = np.split(new_entries, new_rows.indptr[1:-1])
            return np.concatenate(pieces)

        indices = splice(old.indices, new_rows.indices)
        data = splice(old.data, new_rows.data)
        return SparseTensor.from_csr(data, indices, indptr, old.shape)

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.csr.todense(), dtype=np.float32)

    def transpose(self) -> "SparseTensor":
        return SparseTensor(self.csr.T)

    @property
    def T(self) -> "SparseTensor":
        return self.transpose()

    def row_sum(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-row sum of values (used for degrees and GCN normalisation).

        ``rows`` selects the rows to sum, in that order; each sum reads its
        row's entries in the same order either way, so the result is
        bitwise the full sum at ``rows``.
        """
        csr = self.csr if rows is None else self.csr[np.asarray(rows)]
        return np.asarray(csr.sum(axis=1)).reshape(-1)

    def __matmul__(self, other):
        if isinstance(other, Tensor):
            return spmm(self, other)
        if isinstance(other, SparseTensor):
            return SparseTensor(self.csr @ other.csr)
        return self.csr @ np.asarray(other)

    def __repr__(self) -> str:
        return f"SparseTensor(shape={self.shape}, nnz={self.nnz})"

    # ------------------------------------------------------------------ #
    @staticmethod
    def from_edge_index(edge_index: np.ndarray, num_nodes: int,
                        edge_weight: Optional[np.ndarray] = None) -> "SparseTensor":
        """Build an adjacency matrix from a ``(2, num_edges)`` edge index."""
        edge_index = np.asarray(edge_index)
        if edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, num_edges)")
        if edge_weight is None:
            edge_weight = np.ones(edge_index.shape[1], dtype=np.float32)
        matrix = sp.csr_matrix(
            (np.asarray(edge_weight, dtype=np.float32),
             (edge_index[0], edge_index[1])),
            shape=(num_nodes, num_nodes),
        )
        return SparseTensor(matrix)

    @staticmethod
    def from_csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 shape: tuple) -> "SparseTensor":
        """Wrap CSR arrays that are already canonical (each row sorted by
        column, no duplicates) as they are: no copy, no re-sort, and the
        values keep their dtype (the integer serving operator is int64).
        Index arrays should be in scipy's index dtype for ``shape``, or
        scipy converts them."""
        matrix = sp.csr_matrix((data, indices, indptr), shape=shape)
        matrix.has_canonical_format = True
        tensor = SparseTensor.__new__(SparseTensor)
        tensor.csr = matrix
        return tensor

    @staticmethod
    def identity(n: int) -> "SparseTensor":
        return SparseTensor(sp.identity(n, dtype=np.float32, format="csr"))


def spmm(adjacency: SparseTensor, dense: Tensor) -> Tensor:
    """Sparse-dense matrix multiplication ``adjacency @ dense`` with autograd.

    Gradients flow only into the dense operand; the adjacency matrix is
    treated as a constant of the graph structure.  The transpose is built
    in ``backward``, so a ``no_grad`` forward never pays for it.
    """
    if not isinstance(adjacency, SparseTensor):
        adjacency = SparseTensor(adjacency)
    if not isinstance(dense, Tensor):
        dense = Tensor(dense)

    csr = adjacency.csr
    data = np.asarray(csr @ dense.data, dtype=np.float32)

    def backward(grad):
        if dense.requires_grad:
            dense._accumulate(np.asarray(csr.T.tocsr() @ grad, dtype=np.float32))

    return Tensor._make(data, (dense,), backward)
