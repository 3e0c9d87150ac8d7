"""Optimizer base class and gradient utilities."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.tensor.tensor import Tensor


class Optimizer:
    """Base class: holds the parameter list and clears gradients."""

    def __init__(self, parameters: Iterable[Tensor], lr: float):
        self.parameters: List[Tensor] = [p for p in parameters]
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if len({id(p) for p in self.parameters}) != len(self.parameters):
            # A parameter listed twice would get two moment slots and be
            # stepped twice per iteration.
            raise ValueError("optimizer received the same parameter more than once")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Clip the global gradient norm in place; returns the pre-clip norm."""
    parameters = [p for p in parameters if p.grad is not None]
    if not parameters:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in parameters)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for parameter in parameters:
            parameter.grad = parameter.grad * scale
    return total
