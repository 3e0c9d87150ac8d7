"""Dense linear transformation ``y = x W + b``."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor


def linear_operations(num_rows: int, in_features: int, out_features: int,
                      bias: bool) -> int:
    """Scalar operations of ``y = x W (+ b)`` over ``num_rows`` rows: one
    multiply-accumulate per weight per row, plus one add per output where a
    bias is applied."""
    operations = 2 * num_rows * in_features * out_features
    return operations + num_rows * out_features if bias else operations


class Linear(Module):
    """Affine transformation of the last input dimension.

    Parameters
    ----------
    in_features / out_features:
        Input and output dimensionality.
    bias:
        Whether to add a learnable bias vector.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform((in_features, out_features), rng=rng),
                                name="weight")
        if bias:
            self.bias: Optional[Parameter] = Parameter(init.zeros((out_features,)), name="bias")
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def operation_count(self, num_rows: int) -> int:
        """Number of scalar multiply-accumulate operations for ``num_rows`` inputs."""
        return linear_operations(num_rows, self.in_features, self.out_features,
                                 self.bias is not None)

    def __repr__(self) -> str:
        return (f"Linear(in_features={self.in_features}, "
                f"out_features={self.out_features}, bias={self.bias is not None})")
