"""Smoke tests for the experiment runners (tiny configurations).

These protect the benchmark harness: every table/figure runner must execute
end-to-end and return rows in the expected layout, and every declared table
must emit the row labels of the paper's table.  Heavier, shape-asserting
runs live in ``benchmarks/``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import ablation, figures, table_static
from repro.experiments.common import MethodRow, format_table, merge_seed_rows
from repro.experiments.config import QUICK, STANDARD, current_scale
from repro.experiments.reference import TABLES

TINY = replace(QUICK, num_seeds=1, search_epochs=5, train_epochs=8, citation_scale=0.06,
               large_scale=0.3, num_graphs=16, graph_search_epochs=1,
               graph_train_epochs=2, num_folds=2, hidden_features=8)


class TestConfig:
    def test_presets(self):
        assert QUICK.num_seeds < STANDARD.num_seeds
        assert QUICK.citation_scale < STANDARD.citation_scale

    def test_current_scale_defaults_to_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale() is QUICK
        monkeypatch.setenv("REPRO_SCALE", "standard")
        assert current_scale() is STANDARD


class TestRowUtilities:
    def test_method_row_statistics(self):
        row = MethodRow("m", [0.5, 0.7], bits=4.0)
        assert row.mean_accuracy == pytest.approx(0.6)
        assert row.std_accuracy == pytest.approx(0.1)
        assert row.as_dict()["method"] == "m"

    def test_format_table_contains_rows(self):
        text = format_table("T", [MethodRow("FP32", [0.8]), MethodRow("MixQ", [0.7], bits=4)])
        assert "FP32" in text and "MixQ" in text

    def test_merge_seed_rows(self):
        merged = merge_seed_rows([MethodRow("m", [0.5], bits=4.0),
                                  MethodRow("m", [0.7], bits=6.0)])
        assert merged.accuracies == [0.5, 0.7]
        assert merged.bits == pytest.approx(5.0)
        with pytest.raises(ValueError):
            merge_seed_rows([])


class TestStaticTables:
    def test_table1_rows(self):
        rows = table_static.table1_complexity()
        assert {row["method"] for row in rows} == {"DQ", "A2Q", "MixQ-GNN"}
        assert "Table 1" in table_static.format_table1(rows)

    def test_table2_contains_cora(self):
        table = table_static.table2_datasets()
        assert "cora" in table
        assert "cora" in table_static.format_table2(table)


#: Runner options that keep each declared table tiny; every λ grid stays the
#: runner's default, so each table emits the rows the paper has.
TINY_OPTIONS = {
    "table8": {"num_layers": 2},
    "table9": {"num_layers": 2, "positional_encoding_dim": 6, "copies_per_class": 3},
    "table10": {"num_random": 1},
}

#: Where a runner's row labels differ from the paper's, as (emitted only,
#: paper only).  Table 8 reports its accuracy-first MixQ row at λ=-ε where the
#: paper tunes λ*, and has no A²Q graph-classification baseline; Table 9
#: searches at λ=-ε only, where the paper also reports λ=0.
LABEL_MISMATCHES = {
    "table8": ({"MixQ(λ=-ε)"}, {"MixQ(λ*)", "A2Q"}),
    "table9": (set(), {"MixQ(λ=0)"}),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_declared_table_emits_the_paper_rows(name):
    table = TABLES[name]
    results = table.runner(table.datasets, scale=TINY, **TINY_OPTIONS.get(name, {}))
    assert list(results) == list(table.datasets)
    emitted_only, paper_only = LABEL_MISMATCHES.get(name, (set(), set()))
    for dataset, rows in results.items():
        labels = {row.method for row in rows}
        assert len(labels) == len(rows)
        assert labels - set(table.paper[dataset]) == emitted_only
        assert set(table.paper[dataset]) - labels == paper_only
        for row in rows:
            assert row.accuracies and 0.0 <= row.mean_accuracy <= 1.0
            assert row.giga_bit_operations > 0


class TestFigureRunners:
    def test_figure1_points(self):
        points = figures.figure1_operations_vs_accuracy(layer_types=("gcn", "gin"),
                                                        depths=(1, 2), scale=TINY)
        assert len(points) == 4
        assert all(point.operations > 0 for point in points)
        correlation = figures.spearman_rank_correlation(
            [p.operations for p in points], [p.accuracy for p in points])
        assert -1.0 <= correlation <= 1.0

    def test_figure2_and_3(self):
        result = figures.figure2_bitwidth_scatter(num_samples=4, scale=TINY)
        assert len(result.points) == 4
        assert result.pareto_indices
        histogram = figures.figure3_pareto_histograms(result)
        assert len(histogram) == 9  # one histogram per component

    def test_figure8_points_and_correlation(self):
        points = figures.figure8_bitops_vs_time(node_counts=(50,), num_features=8,
                                                bit_widths=(8, 32), repeats=1)
        assert len(points) == 2
        correlation = figures.pearson_correlation(
            [p.bit_operations for p in points], [p.inference_seconds for p in points])
        assert -1.0 <= correlation <= 1.0

    def test_figure9_lambda_sweep(self):
        points = figures.figure9_lambda_sweep(lambdas=(0.0, 1.0), scale=TINY, num_seeds=1)
        assert len(points) == 2
        assert all(2.0 <= p.average_bits <= 8.0 for p in points)


class TestAblationRunners:
    def test_quantizer_range_ablation(self):
        rows = ablation.ablation_quantizer_ranges(scale=TINY)
        assert len(rows) == 2

    def test_output_quantizer_ablation(self):
        rows = ablation.ablation_output_quantizer(scale=TINY)
        assert rows[0].bits != rows[1].bits

    def test_penalty_routing_ablation(self):
        rows = ablation.ablation_penalty_routing(scale=TINY)
        assert len(rows) == 2
