"""Self-tests of the benchmark (not part of the repo's tier-1 suite).

    python3 -m pytest perfbench/tests -q        # < 60 s, 2k-node graph

They check the benchmark against its own declaration in BENCHMARK.json:
every declared metric is printed, with its unit, by every workload; inputs
are a pure function of the seed; span arithmetic is sound; and the layer
contrast the README states (which workloads have which layers' spans)
holds.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import fixtures  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_benchmark(*arguments, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *arguments], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# --------------------------------------------------------------------------- #
# the declaration
# --------------------------------------------------------------------------- #
def test_declaration_matches_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["perfbench"]
    assert isinstance(DECLARED["run_seconds"], int)
    assert 1 <= DECLARED["run_seconds"] <= 60
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = []
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_declared_workloads_are_the_ones_that_run():
    declared = {w["name"]: w["why"] for w in DECLARED["workloads"]}
    assert declared == {spec.name: spec.why for spec in workloads.WORKLOADS}
    assert list(declared) == ["zipf_open", "gat_batch", "stream_open",
                              "shard2_closed"]


# --------------------------------------------------------------------------- #
# inputs are a pure function of the seed
# --------------------------------------------------------------------------- #
def _flatten(inputs):
    parts = [np.concatenate(inputs.warmup)]
    deltas = dict(inputs.warmup_updates or {})
    for window in inputs.windows:
        parts.append(np.concatenate(window.requests))
        if window.arrivals is not None:
            parts.append(window.arrivals)
        deltas.update({("w", at): d for at, d in (window.updates or {}).items()})
    for _, delta in sorted(deltas.items(), key=lambda item: str(item[0])):
        for array in (delta.added_edges, delta.removed_edges,
                      delta.feature_nodes, delta.features):
            if array is not None:
                parts.append(np.asarray(array, dtype=np.float64).reshape(-1))
    return [np.asarray(part, dtype=np.float64).reshape(-1) for part in parts]


@pytest.mark.parametrize("spec", workloads.WORKLOADS, ids=lambda s: s.name)
def test_same_seed_same_inputs_other_seed_other_inputs(spec):
    fixtures.import_program()

    def build(seed):
        return _flatten(workloads.build_inputs(spec, 2000, 64, seed, 1.0,
                                               windows=2, warmup_scale=0.1))

    first, again, other = build(3), build(3), build(4)
    assert len(first) == len(again)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(a.shape == b.shape and np.array_equal(a, b)
                   for a, b in zip(first, other))


# --------------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------------- #
def _span(ident, parent, start, end, name="x"):
    return [ident, parent, name, start, end, 0, 0, 0]


def test_self_time_subtracts_the_union_of_children():
    spans = [_span(1, 0, 0.0, 10.0), _span(2, 1, 1.0, 4.0),
             _span(3, 1, 3.0, 6.0),          # overlaps 2 on another thread
             _span(4, 1, 9.0, 12.0),         # runs past its parent: clipped
             _span(5, 2, 1.5, 2.0)]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[5] == pytest.approx(0.5)
    for span in spans:
        duration = span[tracing.END] - span[tracing.START]
        assert -1e-12 <= selfs[span[tracing.ID]] <= duration + 1e-12


def test_recorder_nests_per_thread_and_is_inert_when_disabled():
    recorder = tracing.Recorder()

    class Target:
        def outer(self):
            return self.inner()

        def inner(self):
            return 7

    target = Target()
    tracing.wrap(recorder, target, "outer", "outer")
    tracing.wrap(recorder, target, "inner", "inner", value=lambda a, r: r)
    assert target.outer() == 7 and recorder.spans() == []
    recorder.enabled = True
    assert target.outer() == 7
    outer, inner = recorder.spans()
    assert inner[tracing.PARENT] == outer[tracing.ID]
    assert inner[tracing.VALUE] == 7
    assert "outer" not in vars(Target()), "wrappers are per instance"


# --------------------------------------------------------------------------- #
# smoke: the real command, 2k-node graph, 2 s windows
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def smoke_results():
    results = {}
    trace_file = fixtures.BUILD_DIR.parent / "selftest-trace.json"
    for spec in workloads.WORKLOADS:
        for trace in (0, 1):
            arguments = ["--workload", spec.name, "--seed", "5", "--smoke",
                         "--trace", str(trace)]
            if trace and spec.name == "zipf_open":
                arguments += ["--trace-out", str(trace_file)]
            done = run_benchmark(*arguments)
            assert done.returncode == 0, done.stdout + done.stderr
            results[spec.name, trace] = (
                json.loads(done.stdout.strip().splitlines()[-1]), done.stdout)
    results["trace_file"] = json.loads(trace_file.read_text())
    trace_file.unlink()
    return results


@pytest.mark.parametrize("spec", workloads.WORKLOADS, ids=lambda s: s.name)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_printed_with_its_unit(smoke_results, spec,
                                                        trace):
    result, stdout = smoke_results[spec.name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(entry["value"]), metric["name"]
        if not trace:
            assert entry["value"] > 0, metric["name"]
    provenance = [line for line in stdout.splitlines()
                  if line.startswith("# provenance ")]
    assert set(json.loads(provenance[0][len("# provenance "):])) == {
        "git_sha", "nproc", "python", "numpy", "scipy", "backend", "seed"}


def test_layers_show_only_where_they_are_on_the_path(smoke_results):
    def value(workload, metric):
        return smoke_results[workload, 1][0]["metrics"][metric]["value"]

    names = [m["name"] for m in DECLARED["per_layer"]]
    cache_spans = ["cache.probe_us_per_row", "cache.fill_us_per_row"]
    assert all(value("zipf_open", name) > 0 for name in cache_spans)
    assert all(value("gat_batch", name) == 0 for name in cache_spans)
    for name in (n for n in names if n.startswith("sharding.")):
        for spec in workloads.WORKLOADS:
            if not spec.shards:
                assert value(spec.name, name) == 0, (spec.name, name)
    assert value("shard2_closed", "sharding.rpc_p50_ms") > 0
    assert value("shard2_closed", "sharding.single_proc_qps") > 0
    for name in (n for n in names if n.startswith("streaming.")):
        for spec in workloads.WORKLOADS:
            if not spec.update_every:
                assert value(spec.name, name) == 0, (spec.name, name)
    assert value("stream_open", "streaming.update_p50_ms") > 0
    assert value("gat_batch", "kernels.edge_spmm_us") > 0
    assert value("zipf_open", "kernels.edge_spmm_us") == 0
    assert value("gat_batch", "kernels.busy_ratio") \
        >= 2 * value("zipf_open", "kernels.busy_ratio")


def test_written_spans_nest_and_reconcile(smoke_results):
    events = smoke_results["trace_file"]["traceEvents"]
    assert events
    spans = [[e["args"]["id"], e["args"]["parent"], e["name"], e["ts"],
              e["ts"] + e["dur"], e["tid"], e["args"]["flush"], 0]
             for e in events]
    selfs = tracing.self_times(spans)
    for span in spans:
        duration = span[tracing.END] - span[tracing.START]
        assert -1e-6 <= selfs[span[tracing.ID]] <= duration + 1e-6
    names = {span[tracing.NAME] for span in spans}
    assert {"engine.flush", "session.run", "sampling.sample",
            "cache.get_batch", "kernels.spmm"} <= names
    runs = {s[tracing.ID] for s in spans if s[tracing.NAME] == "session.run"}
    flushes = {s[tracing.ID] for s in spans if s[tracing.NAME] == "engine.flush"}
    for span in spans:
        if span[tracing.NAME] == "sampling.sample":
            assert span[tracing.PARENT] in runs
        if span[tracing.NAME] == "session.run":
            assert span[tracing.PARENT] in flushes
    metrics = smoke_results["zipf_open", 1][0]["metrics"]
    assert metrics["proc.trace_residual_ratio"]["value"] <= 0.10


def test_refuses_to_run_without_the_program():
    bare = fixtures.BUILD_DIR.parent / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "tests"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run_benchmark("--workload", "zipf_open", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare,
                             script=bare / "perfbench" / "run.py")
        assert done.returncode != 0
        assert not done.stdout.strip().startswith("{")
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
