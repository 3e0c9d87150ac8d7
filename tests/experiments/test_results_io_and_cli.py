"""Tests for result serialization and the command-line interface."""

import argparse
import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.mixq import MixQNodeClassifier, MixQResult
from repro.core.selection import BitWidthSearchResult
from repro.experiments.common import MethodRow
from repro.experiments.reference import TABLES
from repro.experiments.results_io import (
    load_assignment,
    load_table,
    mixq_result_to_dict,
    rows_to_records,
    save_assignment,
    save_mixq_result,
    save_table,
    search_result_to_dict,
)


@pytest.fixture
def assignment():
    return {"conv0.input": 8, "conv0.weight": 2, "conv1.weight": 4}


class TestResultsIO:
    def test_assignment_roundtrip(self, tmp_path, assignment):
        path = tmp_path / "assignment.json"
        save_assignment(assignment, path, metadata={"dataset": "cora"})
        assert load_assignment(path) == assignment
        payload = json.loads(path.read_text())
        assert payload["metadata"]["dataset"] == "cora"

    def test_load_assignment_rejects_other_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(ValueError):
            load_assignment(path)

    def test_search_result_to_dict(self, assignment):
        result = BitWidthSearchResult(assignment=assignment, average_bits=4.67,
                                      lambda_value=0.1, loss_history=[1.0, 0.5],
                                      penalty_history=[0.2, 0.1],
                                      expected_bits_history=[5.0, 4.7])
        payload = search_result_to_dict(result)
        assert payload["average_bits"] == pytest.approx(4.67)
        assert payload["loss_history"] == [1.0, 0.5]

    def test_mixq_result_roundtrip(self, tmp_path, assignment):
        result = MixQResult(accuracy=0.8, average_bits=4.0, giga_bit_operations=1.5,
                            assignment=assignment)
        path = tmp_path / "result.json"
        save_mixq_result(result, path)
        payload = json.loads(path.read_text())
        assert payload["accuracy"] == pytest.approx(0.8)
        assert payload["assignment"] == assignment
        assert "search" not in payload
        assert mixq_result_to_dict(result)["average_bits"] == pytest.approx(4.0)

    def test_table_roundtrip(self, tmp_path):
        rows = [MethodRow("FP32", [0.8], bits=32.0, giga_bit_operations=2.0),
                MethodRow("MixQ", [0.75, 0.77], bits=4.0, giga_bit_operations=0.5)]
        path = tmp_path / "table.json"
        save_table(rows, path, title="Table X")
        records = load_table(path)
        assert len(records) == 2
        assert records[1]["method"] == "MixQ"
        assert rows_to_records(rows)[0]["bits"] == 32.0


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_command_writes_assignment(self, tmp_path):
        out = tmp_path / "assignment.json"
        code = main(["search", "--dataset", "cora", "--scale", "0.05", "--epochs", "4",
                     "--lambda", "0.5", "--out", str(out)])
        assert code == 0
        assignment = load_assignment(out)
        assert assignment
        assert set(assignment.values()) <= {2, 4, 8}

    def test_train_command_with_uniform_bits(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        code = main(["train", "--dataset", "cora", "--scale", "0.05", "--epochs", "6",
                     "--uniform-bits", "4", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "test accuracy" in captured
        payload = json.loads(out.read_text())
        assert payload["average_bits"] == pytest.approx(4.0)

    def test_train_command_consumes_search_output(self, tmp_path):
        assignment_path = tmp_path / "assignment.json"
        main(["search", "--dataset", "cora", "--scale", "0.05", "--epochs", "3",
              "--out", str(assignment_path)])
        code = main(["train", "--dataset", "cora", "--scale", "0.05", "--epochs", "4",
                     "--assignment", str(assignment_path)])
        assert code == 0

    def test_search_with_degree_quant_flag(self, tmp_path):
        code = main(["search", "--dataset", "cora", "--scale", "0.05", "--epochs", "3",
                     "--degree-quant"])
        assert code == 0

    def test_table_name_choices_are_the_declared_tables(self):
        subcommands = next(action for action in build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        name = next(action for action in subcommands.choices["table"]._actions
                    if action.dest == "name")
        assert name.choices == sorted(TABLES)

    def test_table_command_prints_the_declared_title(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(["table", "--name", "table10", "--datasets", "cora"]) == 0
        assert f"{TABLES['table10'].title} — cora" in capsys.readouterr().out
