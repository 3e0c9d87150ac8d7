"""The integer hot-path kernels: one reference, one serving set.

The Theorem-1 aggregation kernels (``spmm`` / ``edge_spmm``), the
attention score stages and the dense layer transforms exist twice, on
purpose:

* ``numpy`` — :class:`NumpyBackend`, the reference that **bit-defines the
  contract**.  Tests and benchmarks compare against it; nothing serves
  with it unless asked to.
* ``vectorized`` — :class:`VectorizedBackend`, the kernels every session
  serves with, certified bit-identical to the reference kernel by kernel
  (``tests/kernels/test_backends.py``) and on served logits
  (``tests/parity_matrix.py``).

``FullGraphSession`` / ``BlockSession`` take ``backend=`` — a name above
or a ready instance — which is how a test asks for the oracle and how a
timing or capturing wrapper attaches; ``None`` is the serving kernels.
Both instances are process-wide: they may carry memoisation but no
per-request state, and every method is thread-safe — sessions share them
across the serving engine's worker pool.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from repro.kernels.numpy_backend import (
    NumpyBackend,
    dequantize_from,
    quantize_onto,
)
from repro.kernels.vectorized import VectorizedBackend

#: What a session's ``backend=`` accepts: a name, a ready backend
#: instance, or None (= the serving kernels).
BackendLike = Union[str, NumpyBackend, None]

_BACKENDS: Dict[str, NumpyBackend] = {"numpy": NumpyBackend(),
                                      "vectorized": VectorizedBackend()}


def available_backends() -> Tuple[str, ...]:
    """The two kernel sets by name, reference first."""
    return tuple(_BACKENDS)


def get_backend(name: str) -> NumpyBackend:
    """The shared instance called ``name``."""
    if name not in _BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; available: "
                         f"{', '.join(_BACKENDS)}")
    return _BACKENDS[name]


def resolve_backend(backend: BackendLike = None) -> NumpyBackend:
    """A session-level ``backend=`` value as an instance: ``None`` is the
    serving kernels, a string a name lookup, an instance passes through."""
    if backend is None:
        backend = "vectorized"
    return get_backend(backend) if isinstance(backend, str) else backend


__all__ = ["BackendLike", "NumpyBackend", "VectorizedBackend",
           "available_backends", "dequantize_from", "get_backend",
           "quantize_onto", "resolve_backend"]
