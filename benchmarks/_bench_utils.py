"""Helpers shared by the benchmark files."""

from repro.experiments.common import format_table, metric_name
from repro.experiments.reference import TABLES


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_table(benchmark, name, scale, **options):
    """Run the declared table ``name`` once on its declared datasets.

    Prints each dataset's rows under the table's title, next to the paper's
    values, and returns ``{dataset: [MethodRow]}``.
    """
    table = TABLES[name]
    results = run_once(benchmark, table.runner, table.datasets, scale=scale, **options)
    for dataset, rows in results.items():
        print("\n" + format_table(f"{table.title} — {dataset}", rows, metric_name(dataset)))
        print(f"paper reference: {table.paper[dataset]}")
    return results
