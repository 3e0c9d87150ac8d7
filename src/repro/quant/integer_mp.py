"""Theorem 1: exact quantized message passing.

For adjacency ``A`` with per-row quantization parameters ``(S_a, Z_a)``,
features ``X`` with per-column parameters ``(S_x, Z_x)`` and output
parameters ``(S_y, Z_y)``, the quantized aggregation output is

``Q_y(AX) = C1 ⊙ Q_a(A) Q_x(X) ⊙ C2 + C3``

where ``C1 = S_a`` (row scaling), ``C2 = S_x ⊘ S_y`` (column scaling) and
``C3`` collects the zero-point correction terms.  The heavy term
``Q_a(A) Q_x(X)`` is a pure sparse-dense *integer* matrix multiplication;
``C1``/``C2``/``C3`` are rank-one vector corrections.

The functions below implement both the general dense form (used to verify
the theorem numerically — the analogue of the paper's
``test_graph_conv_module.py`` / ``test_graph_iso_module.py`` checks) and the
sparse fast path used by the quantized inference modules, which requires a
symmetric adjacency quantizer (``Z_a = 0``) so that structural zeros remain
exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.kernels import get_backend
from repro.kernels.numpy_backend import VectorOrScalar, as_column, as_row
from repro.quant.quantizer import AffineQuantizer
from repro.tensor.sparse import SparseTensor


@dataclass
class QuantizedMessagePassingResult:
    """Output of the integer message-passing kernel."""

    quantized_output: np.ndarray
    dequantized_output: np.ndarray
    integer_product: np.ndarray
    scale_a: np.ndarray
    scale_x: np.ndarray
    scale_y: np.ndarray


def quantized_matmul_dense(qa: np.ndarray, sa: VectorOrScalar, za: VectorOrScalar,
                           qx: np.ndarray, sx: VectorOrScalar, zx: VectorOrScalar,
                           sy: VectorOrScalar = 1.0, zy: VectorOrScalar = 0.0
                           ) -> np.ndarray:
    """General (dense) form of Theorem 1: returns ``Q_y(AX)``.

    ``sa``/``za`` may be scalars or per-row vectors of ``A``; ``sx``/``zx``
    scalars or per-column vectors of ``X``; ``sy``/``zy`` scalars or
    per-column vectors of the output.
    """
    qa = np.asarray(qa, dtype=np.float64)
    qx = np.asarray(qx, dtype=np.float64)
    n_rows, n_inner = qa.shape
    n_cols = qx.shape[1]

    sa_col = as_column(sa, n_rows)
    za_col = as_column(za, n_rows)
    sx_row = as_row(sx, n_cols)
    zx_row = as_row(zx, n_cols)
    sy_row = as_row(sy, n_cols)
    zy_row = as_row(zy, n_cols)

    integer_product = qa @ qx                              # (n_rows, n_cols)
    row_sum_qa = qa.sum(axis=1, keepdims=True)             # (n_rows, 1)
    col_sum_qx = qx.sum(axis=0, keepdims=True)             # (1, n_cols)

    main = sa_col * integer_product * sx_row
    correction_x = sa_col * row_sum_qa * (zx_row * sx_row)
    correction_a = (za_col * sa_col) * (col_sum_qx * sx_row)
    correction_joint = n_inner * (za_col * sa_col) * (zx_row * sx_row)

    output = (main - correction_x - correction_a + correction_joint) / sy_row + zy_row
    return output


def quantized_spmm(qa: SparseTensor, sa: VectorOrScalar,
                   qx: np.ndarray, sx: VectorOrScalar, zx: VectorOrScalar,
                   sy: VectorOrScalar = 1.0, zy: VectorOrScalar = 0.0) -> np.ndarray:
    """Sparse fast path of Theorem 1 (requires a symmetric adjacency, Z_a = 0).

    The integer sparse-dense product runs on int64 arrays; only the rank-one
    corrections touch floating point, exactly as the theorem prescribes.

    Always the ``numpy`` reference kernel (:mod:`repro.kernels`): this is
    the statement of the theorem tests compare against, so it does not
    follow the serving kernels.
    """
    if not isinstance(qa, SparseTensor):
        raise TypeError("quantized_spmm expects the quantized adjacency as SparseTensor")
    return get_backend("numpy").spmm(qa, sa, qx, sx, zx, sy=sy, zy=zy)


def quantized_edge_spmm(q_edge: np.ndarray, s_edge: float,
                        qx: np.ndarray, sx: VectorOrScalar, zx: VectorOrScalar,
                        src: np.ndarray, dst: np.ndarray, num_dst: int) -> np.ndarray:
    """Theorem 1 over an explicit edge list — the per-edge *score plan* path.

    The attention executor cannot pre-materialise its operator (coefficients
    depend on the activations), so instead of a sparse matrix it carries the
    integer per-edge coefficients ``q_edge`` on a symmetric grid
    (``Z_e = 0``, the same requirement as :func:`quantized_spmm`) plus the
    edge endpoints: ``src`` indexes the rows of ``qx``, ``dst`` the output
    rows.  Computes ``sum_{e: dst(e)=t} s_e q_e · s_x (qx[src(e)] - z_x)``
    with the heavy accumulation in int64 and only the rank-one zero-point
    correction in floating point:

    ``Y[t] = s_e s_x (Σ q_e qx[src(e)] - z_x Σ q_e)``.

    Multi-head form: ``q_edge`` with shape ``(E, H)`` and ``qx`` with shape
    ``(N, H, D)`` run all heads in one pass and return ``(num_dst, H, D)``
    — the single-head ``(E,)`` / ``(N, D)`` form is the ``H = 1`` special
    case with the head axis squeezed.  Integer accumulation is exact, so
    the head axis changes shapes only, never values.

    The ``numpy`` reference kernel, exactly like :func:`quantized_spmm`.
    """
    return get_backend("numpy").edge_spmm(q_edge, s_edge, qx, sx, zx,
                                          src, dst, num_dst)


def integer_message_passing(adjacency: SparseTensor, features: np.ndarray,
                            quantizer_a: AffineQuantizer,
                            quantizer_x: AffineQuantizer,
                            quantizer_y: Optional[AffineQuantizer] = None
                            ) -> QuantizedMessagePassingResult:
    """End-to-end quantized aggregation ``Y = A X`` using integer arithmetic.

    The adjacency quantizer must be symmetric (``Z_a = 0``); the feature
    quantizer may be a general affine quantizer.  When ``quantizer_y`` is
    omitted the output parameters are ``S_y = 1, Z_y = 0`` (the multi-layer
    stacking case discussed after Theorem 1), so the quantized output *is*
    the float aggregation result.
    """
    if not quantizer_a.symmetric:
        raise ValueError("the adjacency quantizer must be symmetric (zero-point 0) "
                         "to preserve sparsity")
    qa_values, params_a = quantizer_a.quantize_array(adjacency.values, update_range=True)
    qa = adjacency.with_values(qa_values.astype(np.float32))
    qx, params_x = quantizer_x.quantize_array(features, update_range=True)

    if quantizer_y is None:
        scale_y = np.asarray(1.0)
        zero_y = np.asarray(0.0)
    else:
        # The output range is observed from the fake-quantized float product so
        # the scale matches what QAT saw during training.
        float_product = np.asarray(
            adjacency.with_values(
                quantizer_a.dequantize_array(qa_values, params_a).astype(np.float32)
            ).csr @ quantizer_x.dequantize_array(qx, params_x), dtype=np.float64)
        quantizer_y.observe(float_product)
        params_y = quantizer_y.quantization_parameters()
        scale_y = params_y.scale
        zero_y = params_y.zero_point

    scale_a, _ = params_a.as_scalars()
    scale_x, zero_x = params_x.as_scalars()
    quantized_output = quantized_spmm(
        qa, scale_a, qx, scale_x, zero_x, sy=float(scale_y), zy=float(zero_y))
    dequantized = (quantized_output - float(zero_y)) * float(scale_y)
    integer_product = np.asarray(qa.csr.astype(np.int64) @ qx.astype(np.int64))
    return QuantizedMessagePassingResult(
        quantized_output=quantized_output,
        dequantized_output=dequantized,
        integer_product=integer_product,
        scale_a=np.asarray(scale_a),
        scale_x=np.asarray(scale_x),
        scale_y=np.asarray(scale_y),
    )


def fake_quantized_reference(adjacency: SparseTensor, features: np.ndarray,
                             quantizer_a: AffineQuantizer,
                             quantizer_x: AffineQuantizer) -> np.ndarray:
    """The reference value Theorem 1 must match: ``Q_f(A) @ Q_f(X)`` in floats."""
    qa_values, params_a = quantizer_a.quantize_array(adjacency.values, update_range=False)
    fake_a = adjacency.with_values(
        quantizer_a.dequantize_array(qa_values, params_a).astype(np.float32))
    qx, params_x = quantizer_x.quantize_array(features, update_range=False)
    fake_x = quantizer_x.dequantize_array(qx, params_x)
    return np.asarray(fake_a.csr @ fake_x, dtype=np.float64)
