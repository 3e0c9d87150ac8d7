"""Tests for SGD, Adam, gradient clipping and learning-rate schedulers."""

import numpy as np
import pytest

from repro.nn import Linear
from repro.optim import SGD, Adam, CosineAnnealingLR, StepLR, clip_grad_norm
from repro.optim.optimizer import Optimizer
from repro.tensor import Tensor
from repro.tensor.tensor import Tensor as T


def quadratic_loss(parameter):
    return ((parameter - 3.0) ** 2).sum()


class TestOptimizerBase:
    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_duplicate_parameter_rejected(self):
        parameter = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="more than once"):
            Adam([parameter, parameter], lr=0.1)

    def test_invalid_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], lr=0.0)

    def test_zero_grad_clears_all(self):
        parameter = Tensor([1.0], requires_grad=True)
        optimizer = SGD([parameter], lr=0.1)
        quadratic_loss(parameter).backward()
        optimizer.zero_grad()
        assert parameter.grad is None

    def test_step_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            Optimizer([Tensor([1.0], requires_grad=True)], lr=0.1).step()


class TestSGD:
    def test_single_step_matches_formula(self):
        parameter = Tensor([1.0], requires_grad=True)
        optimizer = SGD([parameter], lr=0.1)
        quadratic_loss(parameter).backward()
        optimizer.step()
        assert parameter.data[0] == pytest.approx(1.0 - 0.1 * 2 * (1.0 - 3.0))

    def test_converges_on_quadratic(self):
        parameter = Tensor([0.0], requires_grad=True)
        optimizer = SGD([parameter], lr=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            quadratic_loss(parameter).backward()
            optimizer.step()
        assert parameter.data[0] == pytest.approx(3.0, abs=1e-3)

    def test_momentum_accelerates(self):
        plain = Tensor([0.0], requires_grad=True)
        momentum = Tensor([0.0], requires_grad=True)
        sgd_plain = SGD([plain], lr=0.01)
        sgd_momentum = SGD([momentum], lr=0.01, momentum=0.9)
        for _ in range(30):
            for parameter, optimizer in ((plain, sgd_plain), (momentum, sgd_momentum)):
                optimizer.zero_grad()
                quadratic_loss(parameter).backward()
                optimizer.step()
        assert abs(momentum.data[0] - 3.0) < abs(plain.data[0] - 3.0)

    def test_weight_decay_shrinks_solution(self):
        parameter = Tensor([0.0], requires_grad=True)
        optimizer = SGD([parameter], lr=0.1, weight_decay=1.0)
        for _ in range(300):
            optimizer.zero_grad()
            quadratic_loss(parameter).backward()
            optimizer.step()
        assert 0.0 < parameter.data[0] < 3.0

    def test_skips_parameters_without_grad(self):
        used = Tensor([0.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        optimizer = SGD([used, unused], lr=0.1)
        quadratic_loss(used).backward()
        optimizer.step()
        assert unused.data[0] == pytest.approx(5.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        parameter = Tensor([0.0], requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            quadratic_loss(parameter).backward()
            optimizer.step()
        assert parameter.data[0] == pytest.approx(3.0, abs=1e-2)

    def test_first_step_size_is_learning_rate(self):
        parameter = Tensor([0.0], requires_grad=True)
        optimizer = Adam([parameter], lr=0.05)
        quadratic_loss(parameter).backward()
        optimizer.step()
        assert parameter.data[0] == pytest.approx(0.05, rel=1e-3)

    def test_trains_linear_regression(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 3)).astype(np.float32)
        true_weight = np.asarray([[1.0], [-2.0], [0.5]], dtype=np.float32)
        y = x @ true_weight
        layer = Linear(3, 1, rng=rng)
        optimizer = Adam(layer.parameters(), lr=0.05)
        for _ in range(200):
            layer.zero_grad()
            prediction = layer(Tensor(x))
            loss = ((prediction - Tensor(y)) ** 2).mean()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data, true_weight, atol=0.05)

    def test_decoupled_weight_decay_changes_trajectory(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        opt_a = Adam([a], lr=0.1, weight_decay=0.5)
        opt_b = Adam([b], lr=0.1, weight_decay=0.5, decoupled_weight_decay=True)
        for optimizer, parameter in ((opt_a, a), (opt_b, b)):
            optimizer.zero_grad()
            quadratic_loss(parameter).backward()
            optimizer.step()
        assert a.data[0] != pytest.approx(b.data[0])


class TestGradClipping:
    def test_clips_to_max_norm(self):
        parameter = Tensor(np.asarray([3.0, 4.0], dtype=np.float32), requires_grad=True)
        (parameter * parameter).sum().backward()  # grad = (6, 8), norm 10
        norm = clip_grad_norm([parameter], max_norm=1.0)
        assert norm == pytest.approx(10.0)
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0, rel=1e-5)

    def test_no_clip_when_below_threshold(self):
        parameter = Tensor([0.1], requires_grad=True)
        (parameter * 2.0).sum().backward()
        clip_grad_norm([parameter], max_norm=10.0)
        assert parameter.grad[0] == pytest.approx(2.0)

    def test_handles_empty_grads(self):
        assert clip_grad_norm([Tensor([1.0], requires_grad=True)], 1.0) == 0.0


class TestSchedulers:
    def test_step_lr_halves(self):
        parameter = Tensor([0.0], requires_grad=True)
        optimizer = SGD([parameter], lr=1.0)
        scheduler = StepLR(optimizer, step_size=2, gamma=0.5)
        for _ in range(4):
            scheduler.step()
        assert optimizer.lr == pytest.approx(0.25)

    def test_cosine_reaches_minimum(self):
        parameter = Tensor([0.0], requires_grad=True)
        optimizer = SGD([parameter], lr=1.0)
        scheduler = CosineAnnealingLR(optimizer, t_max=10, eta_min=0.1)
        for _ in range(10):
            scheduler.step()
        assert optimizer.lr == pytest.approx(0.1, abs=1e-6)

    def test_cosine_is_monotone_decreasing(self):
        optimizer = SGD([Tensor([0.0], requires_grad=True)], lr=1.0)
        scheduler = CosineAnnealingLR(optimizer, t_max=5)
        values = []
        for _ in range(5):
            scheduler.step()
            values.append(optimizer.lr)
        assert all(a >= b for a, b in zip(values, values[1:]))
