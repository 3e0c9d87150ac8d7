"""Tests for the Module/Parameter system, Sequential and ModuleList containers."""

import numpy as np
import pytest

from repro.nn import Linear, Module, ModuleList, Parameter, ReLU, Sequential
from repro.tensor import Tensor


class Toy(Module):
    def __init__(self):
        super().__init__()
        self.linear = Linear(4, 3, rng=np.random.default_rng(0))
        self.scale = Parameter(np.ones(1, dtype=np.float32))
        self.register_buffer("counter", np.asarray(0.0))

    def forward(self, x):
        return self.linear(x) * self.scale


class TestModule:
    def test_parameter_registration(self):
        toy = Toy()
        names = dict(toy.named_parameters())
        assert "scale" in names
        assert "linear.weight" in names
        assert "linear.bias" in names

    def test_parameters_are_unique_objects(self):
        toy = Toy()
        parameters = toy.parameters()
        assert len(parameters) == len({id(p) for p in parameters}) == 3

    def test_module_traversal(self):
        toy = Toy()
        assert sum(1 for _ in toy.modules()) == 2
        assert [name for name, _ in toy.named_modules()] == ["", "linear"]

    def test_train_eval_propagates(self):
        toy = Toy()
        toy.eval()
        assert not toy.linear.training
        toy.train()
        assert toy.linear.training

    def test_zero_grad(self):
        toy = Toy()
        out = toy(Tensor(np.ones((2, 4), dtype=np.float32)))
        out.sum().backward()
        assert toy.linear.weight.grad is not None
        toy.zero_grad()
        assert toy.linear.weight.grad is None

    def test_num_parameters(self):
        toy = Toy()
        assert toy.num_parameters() == 4 * 3 + 3 + 1

    def test_state_dict_roundtrip(self):
        toy = Toy()
        state = toy.state_dict()
        assert "linear.weight" in state and "counter" in state
        toy.linear.weight.data[:] = 0.0
        toy.load_state_dict(state)
        assert np.abs(toy.linear.weight.data).sum() > 0

    def test_state_dict_is_a_copy(self):
        toy = Toy()
        state = toy.state_dict()
        state["scale"][:] = 55.0
        assert toy.scale.data[0] == pytest.approx(1.0)

    def test_buffer_update(self):
        toy = Toy()
        toy.update_buffer("counter", np.asarray(3.0))
        assert float(toy.counter) == 3.0
        with pytest.raises(KeyError):
            toy.update_buffer("missing", np.asarray(0.0))

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestContainers:
    def test_sequential_applies_in_order(self):
        model = Sequential(Linear(3, 5, rng=np.random.default_rng(0)), ReLU(),
                           Linear(5, 2, rng=np.random.default_rng(1)))
        out = model(Tensor(np.ones((4, 3), dtype=np.float32)))
        assert out.shape == (4, 2)
        assert len(model) == 3
        assert isinstance(model[1], ReLU)

    def test_sequential_registers_parameters(self):
        model = Sequential(Linear(3, 5), Linear(5, 2))
        assert len(model.parameters()) == 4

    def test_module_list(self):
        layers = ModuleList([Linear(2, 2) for _ in range(3)])
        assert len(layers) == 3
        assert len(layers.parameters()) == 6
        layers.append(Linear(2, 2))
        assert len(layers) == 4

    def test_module_list_not_callable(self):
        with pytest.raises(RuntimeError):
            ModuleList([Linear(2, 2)])(Tensor(np.ones((1, 2), dtype=np.float32)))


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 7, rng=np.random.default_rng(0))
        assert layer(Tensor(np.ones((3, 4), dtype=np.float32))).shape == (3, 7)

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_linear_is_affine(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((5, 3)).astype(np.float32)
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, rtol=1e-5)

    def test_operation_count(self):
        layer = Linear(10, 20)
        assert layer.operation_count(5) == 2 * 5 * 10 * 20 + 5 * 20
        assert Linear(10, 20, bias=False).operation_count(5) == 2 * 5 * 10 * 20

    def test_gradient_shapes(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        layer(Tensor(np.ones((6, 4), dtype=np.float32))).sum().backward()
        assert layer.weight.grad.shape == (4, 3)
        assert layer.bias.grad.shape == (3,)
