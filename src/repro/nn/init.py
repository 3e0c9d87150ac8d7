"""Parameter initialisers (Glorot/Xavier, uniform, normal, zeros, ones)."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.tensor.random import default_generator


def _generator(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else default_generator()


def glorot_uniform(shape: tuple, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a 2-D weight matrix."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return _generator(rng).uniform(-limit, limit, size=shape).astype(np.float32)


def uniform(shape: tuple, low: float, high: float,
            rng: Optional[np.random.Generator] = None) -> np.ndarray:
    return _generator(rng).uniform(low, high, size=shape).astype(np.float32)


def normal(shape: tuple, std: float = 0.01,
           rng: Optional[np.random.Generator] = None) -> np.ndarray:
    return (_generator(rng).standard_normal(size=shape) * std).astype(np.float32)


def zeros(shape: tuple) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
