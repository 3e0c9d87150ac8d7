"""Multi-layer perceptron used as the GIN update function and readout heads."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.linear import Linear
from repro.nn.module import Module, ModuleList
from repro.nn.normalization import BatchNorm1d
from repro.tensor.tensor import Tensor


class MLP(Module):
    """A stack of ``Linear -> (BatchNorm) -> ReLU`` blocks.

    Parameters
    ----------
    dims:
        Layer widths including input and output,
        e.g. ``[in, hidden, out]`` builds two linear layers.
    batch_norm:
        Insert a :class:`BatchNorm1d` after every hidden linear layer.
    activate_last:
        Apply the activation after the final linear layer as well.
    """

    def __init__(self, dims: Sequence[int], batch_norm: bool = False,
                 activate_last: bool = False, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least an input and an output dimension")
        self.dims = list(dims)
        self.activate_last = activate_last
        self.linears = ModuleList(
            [Linear(dims[i], dims[i + 1], bias=bias, rng=rng) for i in range(len(dims) - 1)])
        norms: List[Module] = []
        if batch_norm:
            norms = [BatchNorm1d(dims[i + 1]) for i in range(len(dims) - 1)]
        self.norms = ModuleList(norms)
        self.activation = ReLU()

    def forward(self, x: Tensor) -> Tensor:
        num_layers = len(self.linears)
        for index, linear in enumerate(self.linears):
            x = linear(x)
            is_last = index == num_layers - 1
            if len(self.norms) and (not is_last or self.activate_last):
                x = self.norms[index](x)
            if not is_last or self.activate_last:
                x = self.activation(x)
        return x

    def __repr__(self) -> str:
        return f"MLP(dims={self.dims})"
