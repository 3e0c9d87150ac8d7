"""Tests for the activation modules and Dropout."""

import numpy as np
import pytest

from repro.nn import Dropout, Identity, ReLU, Sigmoid, Tanh
from repro.tensor import Tensor


class TestActivationsAndDropout:
    def test_relu_module(self):
        assert ReLU()(Tensor([-1.0, 2.0])).data.tolist() == [0.0, 2.0]

    def test_sigmoid_module(self):
        assert Sigmoid()(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_tanh_module(self):
        assert Tanh()(Tensor([0.0])).data[0] == pytest.approx(0.0)

    def test_identity_module(self):
        x = Tensor([1.0, 2.0])
        assert Identity()(x) is x

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.5)

    def test_dropout_eval_mode_identity(self):
        dropout = Dropout(0.9, rng=np.random.default_rng(0))
        dropout.eval()
        x = Tensor(np.ones((5, 5), dtype=np.float32))
        np.testing.assert_allclose(dropout(x).data, x.data)

    def test_dropout_training_zeroes_entries(self):
        dropout = Dropout(0.5, rng=np.random.default_rng(0))
        out = dropout(Tensor(np.ones((50, 50), dtype=np.float32)))
        assert (out.data == 0).mean() == pytest.approx(0.5, abs=0.05)
