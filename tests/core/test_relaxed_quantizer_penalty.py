"""Tests for the relaxed quantizer (Equation 6) and the penalty C(T) (Equation 8)."""

import numpy as np
import pytest

from repro.core.build import build_relaxed_node_classifier
from repro.core.penalty import (
    alpha_parameters,
    architecture_parameters,
    expected_average_bits,
    relaxed_quantizers,
    total_penalty,
)
from repro.core.relaxed_quantizer import RelaxedQuantizer, mixture_quantizer_factory
from repro.nn.module import Module
from repro.quant.qmodules import QuantLinear
from repro.tensor import Tensor


class TestRelaxedQuantizer:
    def test_requires_choices(self):
        with pytest.raises(ValueError):
            RelaxedQuantizer([])

    def test_initial_mixture_is_uniform(self):
        relaxed = RelaxedQuantizer([2, 4, 8])
        np.testing.assert_allclose(relaxed.probability_values(), np.ones(3) / 3, rtol=1e-6)

    def test_expected_bits_initial(self):
        relaxed = RelaxedQuantizer([2, 4, 8])
        assert relaxed.expected_bits_value() == pytest.approx((2 + 4 + 8) / 3)

    def test_selected_bits_follows_argmax(self):
        relaxed = RelaxedQuantizer([2, 4, 8])
        relaxed.alpha.data[:] = [0.0, 5.0, 0.0]
        assert relaxed.selected_bits() == 4

    def test_bits_reads_the_argmax(self):
        relaxed = RelaxedQuantizer([2, 4, 8])
        relaxed.alpha.data[:] = [0.0, 0.0, 3.0]
        assert relaxed.bits == relaxed.selected_bits() == 8

    def test_forward_is_convex_combination(self):
        relaxed = RelaxedQuantizer([2, 8])
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (20,)).astype(np.float32))
        out = relaxed(x)
        low = relaxed.quantizers[0](x).data
        high = relaxed.quantizers[1](x).data
        assert np.all(out.data >= np.minimum(low, high) - 1e-6)
        assert np.all(out.data <= np.maximum(low, high) + 1e-6)

    def test_forward_records_numel(self):
        relaxed = RelaxedQuantizer([2, 4])
        relaxed(Tensor(np.ones((7, 3), dtype=np.float32)))
        assert relaxed.last_numel == 21

    def test_alpha_receives_gradient_from_output(self):
        relaxed = RelaxedQuantizer([2, 8])
        x = Tensor(np.random.default_rng(1).uniform(-1, 1, (10,)).astype(np.float32))
        (relaxed(x) ** 2).sum().backward()
        assert relaxed.alpha.grad is not None
        assert np.abs(relaxed.alpha.grad).sum() > 0

    def test_penalty_proportional_to_numel(self):
        relaxed = RelaxedQuantizer([4])
        relaxed(Tensor(np.ones((10, 10), dtype=np.float32)))
        small = float(relaxed.penalty().data)
        relaxed(Tensor(np.ones((100, 10), dtype=np.float32)))
        large = float(relaxed.penalty().data)
        assert large == pytest.approx(small * 10, rel=1e-5)

    def test_penalty_gradient_favours_smaller_bits(self):
        """The penalty gradient pushes alpha towards the smaller bit-width."""
        relaxed = RelaxedQuantizer([2, 8])
        relaxed(Tensor(np.ones((50, 4), dtype=np.float32)))
        relaxed.penalty().backward()
        grad = relaxed.alpha.grad
        # Gradient descent decreases alpha for the 8-bit choice more than for 2-bit.
        assert grad[1] > grad[0]

    def test_mixture_terms_validation(self):
        relaxed = RelaxedQuantizer([2, 4])
        with pytest.raises(ValueError):
            relaxed.mixture_terms([Tensor([1.0])])

    def test_mixture_terms_blends_values(self):
        relaxed = RelaxedQuantizer([2, 4])
        relaxed.alpha.data[:] = [0.0, 100.0]
        out = relaxed.mixture_terms([Tensor([0.0]), Tensor([10.0])])
        assert out.data[0] == pytest.approx(10.0, abs=1e-3)


class TestMixtureFactory:
    def test_ignores_requested_bits_and_forwards_kind(self):
        factory = mixture_quantizer_factory((2, 4))
        for requested in (2, 8, 32):
            quantizer = factory(requested, "weight")
            assert isinstance(quantizer, RelaxedQuantizer)
            assert quantizer.bit_choices == [2, 4] and quantizer.kind == "weight"

    def test_candidates_come_from_the_base_factory(self):
        from repro.quant.degree_quant import DegreeQuantizer, degree_quant_factory

        quantizer = mixture_quantizer_factory((4, 8), degree_quant_factory())(
            32, "activation")
        assert all(isinstance(q, DegreeQuantizer) for q in quantizer.quantizers)


class _ToyRelaxed(Module):
    def __init__(self):
        super().__init__()
        self.layer = QuantLinear(4, 3,
                                 quantizer_factory=mixture_quantizer_factory([2, 4, 8]),
                                 rng=np.random.default_rng(0))

    def forward(self, x):
        return self.layer(x)


class TestPenaltyAggregation:
    def test_relaxed_quantizers_discovered(self):
        model = _ToyRelaxed()
        assert len(relaxed_quantizers(model)) == 2  # weight + output

    def test_total_penalty_requires_relaxed_modules(self):
        from repro.nn import Linear
        with pytest.raises(ValueError):
            total_penalty(Linear(2, 2))

    def test_total_penalty_positive_after_forward(self):
        model = _ToyRelaxed()
        model(Tensor(np.ones((5, 4), dtype=np.float32)))
        assert float(total_penalty(model).data) > 0

    def test_expected_average_bits_range(self):
        model = _ToyRelaxed()
        value = expected_average_bits(model)
        assert 2.0 <= value <= 8.0

    def test_parameter_partition(self):
        model = _ToyRelaxed()
        alphas = alpha_parameters(model)
        weights = architecture_parameters(model)
        assert len(alphas) == 2
        assert len(alphas) + len(weights) == len(model.parameters())
        assert not {id(a) for a in alphas} & {id(w) for w in weights}


class TestEachComponentCountedOnce:
    """Equation 8 sums every component once and the optimizer steps it once."""

    @pytest.mark.parametrize("family", ["gcn", "gin", "sage", "gat", "tag",
                                        "transformer"])
    def test_no_quantizer_or_parameter_is_traversed_twice(self, family):
        model = build_relaxed_node_classifier(family, [(5, 8), (8, 3)], [2, 4, 8],
                                              rng=np.random.default_rng(0))
        quantizers = relaxed_quantizers(model)
        assert len({id(q) for q in quantizers}) == len(quantizers)
        parameters = model.parameters()
        assert len({id(p) for p in parameters}) == len(parameters)
