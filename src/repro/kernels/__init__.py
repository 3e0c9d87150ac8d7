"""Pluggable kernel backends for the integer serving hot path.

The Theorem-1 aggregation kernels (:meth:`~repro.kernels.numpy_backend.
NumpyBackend.spmm` / :meth:`~repro.kernels.numpy_backend.NumpyBackend.
edge_spmm`), the attention score stages and the dense layer transforms
are dispatched through a small registry instead of being hard-wired to
one numpy implementation:

* :func:`register_backend` / :func:`get_backend` /
  :func:`available_backends` manage named backend factories;
* the ``numpy`` reference backend is always available and **bit-defines
  the contract** — every other backend must reproduce its integer path
  bit-for-bit (the parity matrix asserts this for every registered name);
* ``vectorized`` ships by default (memoised-CSR edge aggregation,
  batched per-head scores, memoised weight dequantization).

Selection happens at session build time: ``FullGraphSession`` /
``BlockSession`` accept ``backend=`` (a name or a backend instance), the
CLI exposes ``--backend`` on ``repro predict`` / ``repro loadtest``, and
the ``REPRO_KERNEL_BACKEND`` environment variable supplies the default
when nothing explicit is given (:func:`resolve_backend`).

Backend instances are process-wide singletons (one per registered name):
they may carry memoisation but no per-request state, and every method
must be thread-safe — sessions share them across the serving engine's
worker pool.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Tuple, Union

from repro.kernels.numpy_backend import (
    NumpyBackend,
    dequantize_from,
    quantize_onto,
)
from repro.kernels.vectorized import VectorizedBackend

#: Environment variable naming the default backend for new sessions.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Registry name of the reference backend (always available).
DEFAULT_BACKEND = "numpy"

#: What session/CLI plumbing accepts: a registry name, a ready backend
#: instance, or None (= the ``REPRO_KERNEL_BACKEND`` / ``numpy`` default).
BackendLike = Union[str, NumpyBackend, None]

_registry_lock = threading.Lock()
_factories: Dict[str, Callable[[], NumpyBackend]] = {}  # guarded-by: _registry_lock
_instances: Dict[str, NumpyBackend] = {}  # guarded-by: _registry_lock


def register_backend(name: str, factory: Callable[[], NumpyBackend],
                     replace: bool = False) -> None:
    """Register a backend factory under ``name``.

    The factory is called lazily, once, on first :func:`get_backend`; the
    instance is then shared process-wide.  Re-registering an existing name
    raises unless ``replace=True`` (which also drops the old instance).
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    with _registry_lock:
        if name in _factories and not replace:
            raise ValueError(f"kernel backend {name!r} is already registered "
                             f"(pass replace=True to override)")
        _factories[name] = factory
        _instances.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, reference first, the rest sorted."""
    with _registry_lock:
        names = set(_factories)
    ordered = [DEFAULT_BACKEND] if DEFAULT_BACKEND in names else []
    return tuple(ordered + sorted(names - {DEFAULT_BACKEND}))


def get_backend(name: str) -> NumpyBackend:
    """The shared instance registered under ``name`` (built on first use)."""
    with _registry_lock:
        instance = _instances.get(name)
        if instance is None:
            factory = _factories.get(name)
            if factory is None:
                raise ValueError(
                    f"unknown kernel backend {name!r}; available: "
                    f"{', '.join(available_backends_locked())}")
            instance = factory()
            _instances[name] = instance
    return instance


def available_backends_locked() -> Tuple[str, ...]:  # requires-lock: _registry_lock
    names = set(_factories)
    ordered = [DEFAULT_BACKEND] if DEFAULT_BACKEND in names else []
    return tuple(ordered + sorted(names - {DEFAULT_BACKEND}))


def resolve_backend(backend: BackendLike = None) -> NumpyBackend:
    """Turn a session-level ``backend=`` value into a backend instance.

    ``None`` consults ``REPRO_KERNEL_BACKEND`` and falls back to the
    ``numpy`` reference; a string is a registry lookup; anything else is
    assumed to already be a backend instance and passed through.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR, "").strip() or DEFAULT_BACKEND
    if isinstance(backend, str):
        return get_backend(backend)
    return backend


register_backend(DEFAULT_BACKEND, NumpyBackend)
register_backend("vectorized", VectorizedBackend)

__all__ = [
    "BACKEND_ENV_VAR",
    "BackendLike",
    "DEFAULT_BACKEND",
    "NumpyBackend",
    "VectorizedBackend",
    "available_backends",
    "dequantize_from",
    "get_backend",
    "quantize_onto",
    "register_backend",
    "resolve_backend",
]
