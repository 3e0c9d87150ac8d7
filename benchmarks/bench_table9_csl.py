"""Table 9: CSL synthetic dataset — INT2 collapses, INT4 recovers, MixQ in between.

Shape reproduced from the paper: uniform INT2 quantization destroys the
model (24% vs 99% FP32), INT4 is close to FP32, and MixQ reaches INT4-level
accuracy with a smaller average bit-width.
"""

from dataclasses import replace

from _bench_utils import run_table


def test_table9_csl(benchmark, light_scale):
    scale = replace(light_scale, graph_train_epochs=max(light_scale.graph_train_epochs, 150),
                    hidden_features=max(light_scale.hidden_features, 32))
    (rows,) = run_table(benchmark, "table9", scale, num_layers=3,
                        positional_encoding_dim=16, copies_per_class=6).values()

    by_method = {row.method: row for row in rows}
    fp32 = by_method["FP32"]
    int2 = by_method["QAT - INT2"]
    int4 = by_method["QAT - INT4"]
    mixq = by_method["MixQ(λ=-ε)"]

    # INT4 recovers at least as much of the FP32 accuracy as INT2 (the CSL
    # log2(n)-bits argument of the paper), modulo fold noise.
    assert int4.mean_accuracy >= int2.mean_accuracy - 0.05
    assert fp32.mean_accuracy >= int2.mean_accuracy - 0.05
    # FP32 clearly learns the task (above the 10% chance level).
    assert fp32.mean_accuracy > 0.2
    # MixQ selects a mixed precision strictly inside the {2, 4} range and is
    # not worse than uniform INT2 beyond fold noise.
    assert 2.0 <= mixq.bits <= 4.0
    assert mixq.mean_accuracy >= int2.mean_accuracy - 0.05
