"""``Module`` / ``Parameter`` abstractions (a torch.nn-like module system).

Modules register parameters and sub-modules automatically through attribute
assignment, expose recursive iteration over them, and carry a ``training``
flag toggled by :meth:`Module.train` / :meth:`Module.eval`.  This is the
scaffolding the quantization and relaxation wrappers in :mod:`repro.quant`
and :mod:`repro.core` hook into.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A tensor flagged as a learnable parameter of a module."""

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self._buffers: Dict[str, np.ndarray] = {}
        self.training = True

    # ------------------------------------------------------------------ #
    # attribute based registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[key] = value
        object.__setattr__(self, key, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-learnable state (e.g. running statistics, observer ranges)."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its sub-modules (depth-first)."""
        return [parameter for _, parameter in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> List[Tuple[str, Parameter]]:
        out: List[Tuple[str, Parameter]] = []
        for name, parameter in self._parameters.items():
            out.append((prefix + name, parameter))
        for name, module in self._modules.items():
            out.extend(module.named_parameters(prefix=f"{prefix}{name}."))
        return out

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every sub-module (depth-first, pre-order)."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        return sum(parameter.size for parameter in self.parameters())

    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, parameter in self._parameters.items():
            state[prefix + name] = parameter.data.copy()
        for name, value in self._buffers.items():
            state[prefix + name] = np.asarray(value).copy()
        for name, module in self._modules.items():
            state.update(module.state_dict(prefix=f"{prefix}{name}."))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], prefix: str = "") -> None:
        for name, parameter in self._parameters.items():
            key = prefix + name
            if key in state:
                parameter.data = np.asarray(state[key], dtype=parameter.data.dtype).copy()
        for name in list(self._buffers):
            key = prefix + name
            if key in state:
                self.update_buffer(name, state[key])
        for name, module in self._modules.items():
            module.load_state_dict(state, prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------ #
    # call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        lines = [self.__class__.__name__ + "("]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{self.__class__.__name__}()"


class Sequential(Module):
    """Run sub-modules in order, feeding each output into the next module."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._ordered: List[Module] = []
        for index, module in enumerate(modules):
            self.add_module(str(index), module)
            self._ordered.append(module)

    def forward(self, x, *extra):
        for module in self._ordered:
            x = module(x, *extra) if extra else module(x)
            extra = ()
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)

    def __getitem__(self, index: int) -> Module:
        return self._ordered[index]


class ModuleList(Module):
    """A list container whose entries are registered as sub-modules."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        self._ordered: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._ordered)), module)
        self._ordered.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)

    def __getitem__(self, index: int) -> Module:
        return self._ordered[index]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called")
