"""End-to-end and argparse-snapshot tests for `repro export` / `repro predict`."""

import argparse
import re

import numpy as np
import pytest

from repro.cli import _train_for_export, build_parser, main
from repro.kernels import resolve_backend
from repro.quant.qmodules import gcn_component_names, uniform_assignment


def _subcommands(parser):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _option_snapshot(subparser):
    """(default, help) of every option — a version-stable argparse snapshot."""
    return {", ".join(action.option_strings): (action.default, action.help)
            for action in subparser._actions
            if action.option_strings and action.option_strings != ["-h", "--help"]}


class TestEndToEnd:
    def test_export_then_predict_matches_qat_logits(self, tmp_path):
        """Acceptance: file-served logits == in-memory fake-quantized QAT."""
        artifact_path = tmp_path / "artifact.npz"
        logits_path = tmp_path / "logits.npz"
        common = ["--dataset", "cora", "--scale", "0.05", "--seed", "0"]
        assert main(["export", *common, "--epochs", "6", "--uniform-bits", "8",
                     "--out", str(artifact_path)]) == 0
        assert artifact_path.exists()
        assert artifact_path.with_suffix(".json").exists()

        # block mode, unlimited fanout: exact integer serving from the file
        assert main(["predict", *common, "--artifact", str(artifact_path),
                     "--mode", "block", "--fanout", "0", "--split", "all",
                     "--requests", "3", "--out", str(logits_path)]) == 0

        # reconstruct the exact QAT model the export command trained
        graph, model, _ = _train_for_export(
            "cora", "gcn", 16, 2, 0.05, 0,
            uniform_assignment(gcn_component_names(2), 8),
            epochs=6, lr=0.01, degree_quant=False)
        reference = model(graph).data

        payload = np.load(logits_path)
        np.testing.assert_array_equal(payload["nodes"],
                                      np.arange(graph.num_nodes))
        np.testing.assert_allclose(payload["logits"], reference,
                                   rtol=1e-3, atol=1e-3)
        np.testing.assert_array_equal(payload["classes"],
                                      payload["logits"].argmax(axis=1))

    def test_predict_full_mode_and_node_list(self, tmp_path, capsys):
        artifact_path = tmp_path / "artifact"
        common = ["--dataset", "cora", "--scale", "0.05", "--seed", "0"]
        main(["export", *common, "--epochs", "3", "--uniform-bits", "4",
              "--out", str(artifact_path)])
        capsys.readouterr()
        assert main(["predict", *common, "--artifact", str(artifact_path),
                     "--mode", "full", "--nodes", "0", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "GBitOPs" in out
        assert "served 3 nodes" in out

    def test_predict_clamps_request_count(self, tmp_path, capsys):
        artifact_path = tmp_path / "artifact"
        common = ["--dataset", "cora", "--scale", "0.05", "--seed", "0"]
        main(["export", *common, "--epochs", "2", "--out", str(artifact_path)])
        capsys.readouterr()
        # more requests than nodes, and a non-positive count, both clamp
        assert main(["predict", *common, "--artifact", str(artifact_path),
                     "--nodes", "0", "1", "--requests", "7"]) == 0
        assert main(["predict", *common, "--artifact", str(artifact_path),
                     "--nodes", "0", "--requests", "0"]) == 0

    def test_predict_rejects_mismatched_graph(self, tmp_path, capsys):
        artifact_path = tmp_path / "artifact"
        main(["export", "--dataset", "cora", "--scale", "0.05", "--epochs", "2",
              "--out", str(artifact_path)])
        code = main(["predict", "--artifact", str(artifact_path),
                     "--dataset", "cora", "--scale", "0.1"])
        assert code == 1
        assert "features" in capsys.readouterr().err


class TestParserSnapshot:
    def test_subcommand_set(self):
        assert set(_subcommands(build_parser())) == \
            {"search", "train", "table", "export", "predict", "loadtest",
             "streamtest"}

    def test_export_options_snapshot(self):
        snapshot = _option_snapshot(_subcommands(build_parser())["export"])
        assert set(snapshot) == {
            "--dataset", "--conv", "--hidden", "--layers", "--hops", "--heads",
            "--head-merge", "--scale", "--seed", "--degree-quant",
            "--assignment", "--uniform-bits", "--epochs", "--lr", "--out"}
        assert snapshot["--conv"][0] == "gcn"
        assert snapshot["--uniform-bits"][0] == 8
        assert snapshot["--epochs"][0] == 100
        assert snapshot["--hops"][0] == 3
        assert snapshot["--heads"][0] == 1
        assert snapshot["--head-merge"][0] == "concat"
        assert snapshot["--lr"][0] == pytest.approx(0.01)
        # export serves every conv family the serving layer plans support
        conv_action = next(
            action for action
            in _subcommands(build_parser())["export"]._actions
            if action.option_strings == ["--conv"])
        assert list(conv_action.choices) == ["gcn", "sage", "gin", "gat",
                                             "tag", "transformer"]

    def test_predict_options_snapshot(self):
        snapshot = _option_snapshot(_subcommands(build_parser())["predict"])
        assert set(snapshot) == {
            "--artifact", "--dataset", "--scale", "--seed", "--mode",
            "--fanout", "--batch-size", "--nodes", "--split", "--requests",
            "--cache-size", "--cache-mb", "--workers", "--repeat", "--out",
            "--shards", "--partition", "--shard-deadline"}
        assert snapshot["--mode"][0] == "block"
        assert snapshot["--fanout"][0] == 10
        assert snapshot["--batch-size"][0] == 256
        assert snapshot["--split"][0] == "test"
        assert snapshot["--requests"][0] == 1
        assert snapshot["--cache-size"][0] == 0
        assert snapshot["--cache-mb"][0] == pytest.approx(256.0)
        assert snapshot["--workers"][0] == 1
        assert snapshot["--repeat"][0] == 1
        assert snapshot["--shards"][0] == 0
        assert snapshot["--partition"][0] == "hash"
        assert snapshot["--shard-deadline"][0] == pytest.approx(0.0)

    def test_loadtest_options_snapshot(self):
        snapshot = _option_snapshot(_subcommands(build_parser())["loadtest"])
        assert set(snapshot) == {
            "--artifact", "--dataset", "--scale", "--seed", "--conv",
            "--hidden", "--layers", "--uniform-bits", "--train-epochs",
            "--pattern", "--skew", "--arrival", "--qps", "--duration",
            "--requests", "--seeds-per-request", "--mode", "--clients",
            "--warmup", "--deadline-ms", "--traffic-seed", "--fanout",
            "--batch-size", "--cache-size", "--workers",
            "--shards", "--partition", "--shard-deadline"}
        assert snapshot["--pattern"][0] == "zipfian"
        assert snapshot["--skew"][0] == pytest.approx(1.1)
        assert snapshot["--arrival"][0] == "poisson"
        assert snapshot["--qps"][0] == pytest.approx(200.0)
        assert snapshot["--duration"][0] == pytest.approx(1.0)
        assert snapshot["--mode"][0] == "open"
        assert snapshot["--clients"][0] == 4
        assert snapshot["--warmup"][0] == 16
        assert snapshot["--deadline-ms"][0] == pytest.approx(50.0)
        assert snapshot["--seeds-per-request"][0] == 8
        assert snapshot["--cache-size"][0] == 0
        assert snapshot["--workers"][0] == 1
        # pattern/arrival/mode expose exactly the harness's vocabulary
        loadtest = _subcommands(build_parser())["loadtest"]
        choices = {action.option_strings[0]: list(action.choices)
                   for action in loadtest._actions if action.choices}
        assert choices["--pattern"] == ["zipfian", "uniform"]
        assert choices["--arrival"] == ["poisson", "fixed"]
        assert choices["--mode"] == ["open", "closed"]

    def test_loadtest_reports_the_measured_window(self, capsys):
        assert main(["loadtest", "--dataset", "cora", "--scale", "0.05",
                     "--train-epochs", "2", "--pattern", "zipfian",
                     "--mode", "closed", "--clients", "2", "--requests", "12",
                     "--seeds-per-request", "4", "--warmup", "4",
                     "--deadline-ms", "200", "--cache-size", "2048"]) == 0
        out = capsys.readouterr().out
        assert "p95" in out and "SLO" in out
        assert "8 measured requests" in out  # 12 requests - 4 warm-up
        assert re.search(r"failure rate\s+0\.0%", out)

    def test_loadtest_reports_the_artifacts_conv(self, tmp_path, capsys):
        """``--conv`` is ignored with ``--artifact``: the report names the
        family that was served, not the flag's default."""
        artifact_path = tmp_path / "sage.npz"
        common = ["--dataset", "cora", "--scale", "0.05", "--seed", "0"]
        assert main(["export", *common, "--conv", "sage", "--epochs", "2",
                     "--out", str(artifact_path)]) == 0
        capsys.readouterr()
        assert main(["loadtest", *common, "--artifact", str(artifact_path),
                     "--mode", "closed", "--clients", "1", "--requests", "6",
                     "--warmup", "2"]) == 0
        out = capsys.readouterr().out
        assert "conv=sage" in out and "conv=gcn" not in out

    def test_streamtest_options_snapshot(self):
        snapshot = _option_snapshot(_subcommands(build_parser())["streamtest"])
        assert set(snapshot) == {
            "--artifact", "--dataset", "--scale", "--seed", "--conv",
            "--hidden", "--layers", "--uniform-bits", "--train-epochs",
            "--pattern", "--skew", "--arrival", "--qps", "--duration",
            "--requests", "--seeds-per-request", "--update-every",
            "--edges-per-update", "--feature-nodes", "--update-seed",
            "--warmup", "--deadline-ms", "--traffic-seed", "--fanout",
            "--batch-size", "--cache-size", "--workers"}
        assert snapshot["--update-every"][0] == 8
        assert snapshot["--edges-per-update"][0] == 4
        assert snapshot["--feature-nodes"][0] == 2
        assert snapshot["--update-seed"][0] == 0
        assert snapshot["--warmup"][0] == 16
        assert snapshot["--deadline-ms"][0] == pytest.approx(50.0)
        # no sharding knobs: sharded sessions don't support streaming updates
        assert "--shards" not in snapshot and "--mode" not in snapshot

    def test_streamtest_reports_updates_and_failures(self, capsys):
        assert main(["streamtest", "--dataset", "cora", "--scale", "0.05",
                     "--train-epochs", "2", "--requests", "24",
                     "--update-every", "6", "--seeds-per-request", "4",
                     "--warmup", "4", "--deadline-ms", "200",
                     "--cache-size", "2048"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"failure rate\s+0\.0%", out)
        assert int(re.search(r"(\d+) updates", out).group(1)) >= 1
        assert int(re.search(r"final graph version (\d+)", out).group(1)) >= 1
        assert "(every 6 queries)" in out

    def test_streamtest_reports_the_served_conv_and_backend(self, capsys):
        """The report line names the family trained for ``--conv`` and the
        session's kernel backend."""
        assert main(["streamtest", "--dataset", "cora", "--scale", "0.05",
                     "--conv", "sage", "--train-epochs", "2",
                     "--requests", "12", "--update-every", "6",
                     "--seeds-per-request", "2", "--warmup", "2"]) == 0
        out = capsys.readouterr().out
        assert f"conv=sage, backend={resolve_backend(None).name})" in out

    def test_backend_flag_is_gone(self, capsys):
        """The serving kernels are not a command-line choice."""
        with pytest.raises(SystemExit) as exit_info:
            main(["predict", "--artifact", "a.npz", "--backend", "numpy"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["loadtest", "--emit", "x.json"],
                                      ["streamtest", "--name", "x"],
                                      ["loadtest", "--name", "x"],
                                      ["streamtest", "--emit", "x.json"]])
    def test_trajectory_flags_are_gone(self, argv, capsys):
        """The load harness prints its report; it writes no result file."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert argv[1] in capsys.readouterr().err

    def test_predict_help_documents_defaults(self):
        # collapse argparse's terminal-width wrapping before matching
        help_text = " ".join(
            _subcommands(build_parser())["predict"].format_help().split())
        assert "default: 10" in help_text      # --fanout
        assert "default: 256" in help_text     # --batch-size
        assert "default: block" in help_text   # --mode
        assert "unlimited" in help_text or "every neighbour" in help_text
