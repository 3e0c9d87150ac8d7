"""Neural-network module system built on the autodiff tensor engine."""

from repro.nn.module import Module, Parameter, Sequential, ModuleList
from repro.nn.linear import Linear
from repro.nn.activations import ReLU, Sigmoid, Tanh, Identity, Dropout
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Identity",
    "Dropout",
    "init",
]
