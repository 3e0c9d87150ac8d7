"""The dense transform does not depend on BLAS's thread count.

Shard workers run BLAS on one thread (``repro.sharding._blas``); the
single-process session they must match bitwise runs on OpenBLAS's default
count.  The parity matrix's graphs are too small to cross OpenBLAS's
threading threshold, so this pins ``x @ W`` and ``linear_requant`` above
it: a sharded 100k-node workload's 600-row chunk layer, 4,096 rows, and
25,000 rows, about a 128-seed GAT request's input layer.
"""

import numpy as np
import pytest

from repro.kernels import resolve_backend
from repro.quant.quantizer import QuantizationParameters
from repro.serving.artifact import WeightPlan

#: (rows, in_features, out_features)
SHAPES = [(600, 64, 32), (4096, 64, 32), (25_000, 64, 128)]


def _transforms():
    backend = resolve_backend(None)
    params = QuantizationParameters(scale=np.asarray(0.05),
                                    zero_point=np.asarray(3.0),
                                    qmin=-128, qmax=127, bits=8)
    outputs = []
    for rows, fan_in, fan_out in SHAPES:
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, fan_in))
        weight = WeightPlan(
            rng.integers(-7, 8, size=(fan_in, fan_out)).astype(np.float64),
            scale=0.013, bits=4, bias=rng.standard_normal(fan_out))
        outputs.append((x @ weight.dequantized(),
                        *backend.linear_requant(x, weight, params)))
    return outputs


def test_one_thread_equals_default_count(in_pinned_child):
    threaded = _transforms()

    def compare():
        return [[np.array_equal(mine, theirs) for mine, theirs in zip(*pair)]
                for pair in zip(_transforms(), threaded)]

    pinned, equal = in_pinned_child(compare)
    if pinned == 0:
        pytest.skip("no OpenBLAS mapped: the thread count is not ours to set")
    assert equal == [[True, True, True]] * len(SHAPES), list(zip(SHAPES,
                                                                  equal))
