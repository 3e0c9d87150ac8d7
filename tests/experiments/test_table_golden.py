"""Bitwise goldens for the quantized rows of the paper's node tables and Fig. 9.

Every row of Tables 3 (full-batch and sampled), 4, 5, 6, 7 and 10 is pinned
as ``(method, accuracies, bits, GBitOPs)``, and every Fig. 9 point as
``(λ, average bits, accuracy)``, at ``QUICK`` with one seed on the Cora
stand-in (Table 7 on the Reddit stand-in).  Scalars are compared exactly.
Regenerate a literal only in a commit that says which row moved and why.

Beside the literals, the deterministic facts of the tables are asserted on
the same records: FP32 : DQ INT8 : DQ INT4 GBitOPs is 4 : 1 : ½, MixQ(λ=1)
costs no more GBitOPs than DQ INT8, and every MixQ bit-width lies inside the
candidate range {2, 4, 8}.  Accuracy orderings are not asserted: at quick
scale their spreads are too wide to tell.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.experiments import figures
from repro.experiments.config import QUICK
from repro.experiments.reference import TABLES

SCALE = replace(QUICK, num_seeds=1)

#: case -> (declared table, dataset, runner options)
CASES = {
    "table3": ("table3", "cora", {}),
    "table3-minibatch": ("table3", "cora", {"minibatch": True}),
    "table4": ("table4", "cora", {}),
    "table5": ("table5", "cora", {}),
    "table6": ("table6", "cora", {}),
    "table7": ("table7", "reddit", {"lambdas": (-1e-8, 1.0)}),
    "table10": ("table10", "cora", {}),
}


@lru_cache(maxsize=None)
def record(case: str) -> list:
    if case == "figure9":
        points = figures.figure9_lambda_sweep((-0.1, 0.0, 0.1, 1.0), scale=SCALE,
                                              num_seeds=1)
        return [(p.lambda_value, p.average_bits, p.accuracy) for p in points]
    name, dataset, options = CASES[case]
    rows = TABLES[name].runner((dataset,), scale=SCALE, **options)[dataset]
    return [(row.method, row.accuracies, row.bits, row.giga_bit_operations)
            for row in rows]


GOLDEN = {
    'figure9': [(-0.1, 5.111111111111111, 0.765625),
                (0.0, 4.0, 0.859375),
                (0.1, 4.0, 0.859375),
                (1.0, 3.111111111111111, 0.828125)],
    'table10': [('Random', [0.1875, 0.84375, 0.1875], 3.7037037037037037,
                 0.011416877333333332),
                ('Random+INT8', [0.859375, 0.1875, 0.171875], 5.5555555555555545,
                 0.015213693333333334),
                ('MixQ(λ=1)', [0.828125], 3.111111111111111, 0.007585976)],
    'table3': [('FP32', [0.859375], 32.0, 0.061885312),
               ('DQ INT8', [0.859375], 8.0, 0.015471328),
               ('DQ INT4', [0.859375], 4.0, 0.007735664),
               ('A2Q', [0.890625], 4.0, 0.017414368),
               ('MixQ(λ=-ε)', [0.859375], 4.666666666666667, 0.014796984),
               ('MixQ(λ=0.1)', [0.859375], 4.0, 0.007684536),
               ('MixQ(λ=1)', [0.828125], 3.111111111111111, 0.007585976)],
    'table3-minibatch': [('FP32', [0.84375], 32.0, 0.061885312),
                         ('DQ INT8', [0.84375], 8.0, 0.015471328),
                         ('DQ INT4', [0.84375], 4.0, 0.007735664),
                         ('A2Q', [0.890625], 4.0, 0.017414368),
                         ('MixQ(λ=-ε)', [0.890625], 5.555555555555555, 0.015022264),
                         ('MixQ(λ=0.1)', [0.9375], 4.444444444444445, 0.007909816),
                         ('MixQ(λ=1)', [0.875], 3.5555555555555554, 0.007684536)],
    'table4': [('MixQ(λ=-ε)', [0.859375], 4.666666666666667, 0.014796984),
               ('MixQ(λ=-ε) + DQ', [0.734375], 4.444444444444445, 0.014796984),
               ('MixQ(λ=0.1)', [0.859375], 4.0, 0.007684536),
               ('MixQ(λ=0.1) + DQ', [0.734375], 3.7777777777777777, 0.007684536),
               ('MixQ(λ=1)', [0.828125], 3.111111111111111, 0.007585976),
               ('MixQ(λ=1) + DQ', [0.625], 2.888888888888889, 0.007585976)],
    'table5': [('A2Q', [0.890625], 4.0, 0.017414368),
               ('MixQ + DQ', [0.734375], 4.444444444444445, 0.014796984)],
    'table6': [('FP32', [0.8125], 32.0, 0.135536768),
               ('MixQ(λ=0.1)', [0.828125], 4.909090909090909, 0.032999672),
               ('MixQ(λ=1)', [0.765625], 3.8181818181818183, 0.018795512)],
    'table7': [('FP32', [0.93], 32.0, 0.473721152),
               ('MixQ(λ=-ε)', [0.79], 6.7272727272727275, 0.116786256),
               ('MixQ(λ=1)', [0.82], 3.4545454545454546, 0.059215144)],
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_table_rows_are_stable(case):
    fresh = record(case)
    assert fresh == GOLDEN[case], fresh


@pytest.mark.parametrize("case", ["table3", "table3-minibatch"])
def test_uniform_gbitops_scale_with_the_bit_width(case):
    gbitops = {method: cost for method, _, _, cost in record(case)}
    assert gbitops["FP32"] == 4 * gbitops["DQ INT8"]
    assert gbitops["DQ INT4"] == gbitops["DQ INT8"] / 2
    assert gbitops["MixQ(λ=1)"] <= gbitops["DQ INT8"]


def test_mixq_bits_lie_in_the_candidate_range():
    bits = [row_bits for case in sorted(CASES)
            for method, _, row_bits, _ in record(case) if method.startswith("MixQ")]
    bits += [point_bits for _, point_bits, _ in record("figure9")]
    assert len(bits) == 22
    assert all(2.0 <= value <= 8.0 for value in bits), bits
