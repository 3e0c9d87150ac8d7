"""Shared fixtures of the serving benchmark: the served graph and two artifacts.

The fixtures are the benchmark's *build step*.  The 100k-node SBM graph takes
~14 s to generate, so it is built once per checkout into ``.bench_build/`` and
reloaded (~0.2 s) by every later run.  They are constants of the benchmark —
``--seed`` drives the traffic (seed nodes, arrivals, graph deltas), not the
served graph — so every run of every seed serves the same graph with the same
weights, and only the generated inputs differ.

Nothing here searches: the mixed-precision assignment is the literal
``BITS`` table below (4-bit weights / adjacency / attention, 8-bit
activations), QAT-trained for two epochs on a 2k-node calibration graph.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

#: Bump when anything below changes what the fixtures contain.
FIXTURE_VERSION = 1
GRAPH_SEED = 0
CALIBRATION_SEED = 1
NUM_CLASSES = 8
NUM_FEATURES = 64
HIDDEN = 32
AVERAGE_DEGREE = 8.0
FULL_NODES = 100_000
SMOKE_NODES = 2_000
CALIBRATION_NODES = 2_000
GAT_HEADS = 4

#: The literal mixed-precision assignment, by component suffix.
BITS = {"weight": 4, "adjacency": 4, "attention": 4,
        "input": 8, "linear_out": 8, "aggregate_out": 8}


def import_program() -> None:
    """Make the checkout's own ``src/repro`` importable — and nothing else.

    The benchmark measures the program in this checkout, so an installed
    ``repro`` from elsewhere must never stand in for it: a directory that
    holds the benchmark without the program fails here.
    """
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from "
                         f"{source}: {error}") from error
    if source not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: 'repro' resolved to {repro.__file__}, "
                         f"not to this checkout's {source}")


@dataclass
class Fixtures:
    """Graph arrays plus the two artifacts, as loaded from the build dir."""

    arrays: Dict[str, np.ndarray]
    artifacts: Dict[str, object]
    #: ``graphs.generate_s`` / ``serving.export_s`` as measured at build time.
    build_seconds: Dict[str, float]

    @property
    def num_nodes(self) -> int:
        return int(self.arrays["x"].shape[0])

    def graph(self, private: bool = False):
        """A fresh :class:`Graph` over the fixture arrays.

        Fresh means no memoised adjacency — building it is part of what a
        restarted server pays, so it belongs inside ``setup_s``.  ``private``
        copies the arrays (streaming updates overwrite feature rows in
        place).
        """
        from repro.graphs.graph import Graph

        graph = Graph(self.arrays["x"], self.arrays["edge_index"],
                      y=self.arrays["y"],
                      edge_weight=self.arrays["edge_weight"], name="perfbench")
        return graph.copy() if private else graph


def _sbm_graph(num_nodes: int, seed: int):
    from repro.graphs.datasets.synthetic import SBMConfig, generate_sbm_graph

    return generate_sbm_graph(
        SBMConfig(num_nodes=num_nodes, num_classes=NUM_CLASSES,
                  num_features=NUM_FEATURES, average_degree=AVERAGE_DEGREE,
                  name="perfbench"), seed=seed)


def _train_artifact(conv: str, heads: int, calibration):
    from repro.core.build import layer_dimensions
    from repro.core.search_space import conv_component_names
    from repro.quant.qmodules import QuantNodeClassifier
    from repro.serving import QuantizedArtifact
    from repro.training.trainer import train_node_classifier

    assignment = {name: BITS[name.split(".", 1)[1]]
                  for name in conv_component_names(conv, 2)}
    model = QuantNodeClassifier.from_assignment(
        layer_dimensions(NUM_FEATURES, HIDDEN, NUM_CLASSES, 2), conv,
        assignment, heads=heads, rng=np.random.default_rng(0))
    train_node_classifier(model, calibration, epochs=2, lr=0.01)
    model.eval()
    return QuantizedArtifact.from_model(
        model, metadata={"assignment": assignment, "heads": heads})


def _build(target: Path, num_nodes: int) -> None:
    """Generate graph + artifacts into ``target`` (atomically)."""
    staging = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        start = time.perf_counter()
        graph = _sbm_graph(num_nodes, GRAPH_SEED)
        generate_s = time.perf_counter() - start
        np.savez(staging / "graph.npz", x=graph.x, edge_index=graph.edge_index,
                 y=graph.y, edge_weight=graph.edge_weight)

        start = time.perf_counter()
        calibration = _sbm_graph(CALIBRATION_NODES, CALIBRATION_SEED)
        _train_artifact("gcn", 1, calibration).save(staging / "gcn")
        _train_artifact("gat", GAT_HEADS, calibration).save(staging / "gat")
        export_s = time.perf_counter() - start

        (staging / "meta.json").write_text(json.dumps(
            {"graphs.generate_s": generate_s, "serving.export_s": export_s,
             "num_nodes": num_nodes, "num_edges": graph.num_edges}))
        try:
            staging.rename(target)
        except OSError:
            if not (target / "meta.json").exists():
                raise  # lost a race only if someone else finished the build
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def load(smoke: bool = False) -> Fixtures:
    """The fixtures of this checkout, building them on first use."""
    from repro.serving import QuantizedArtifact

    num_nodes = SMOKE_NODES if smoke else FULL_NODES
    target = BUILD_DIR / f"v{FIXTURE_VERSION}-n{num_nodes}"
    if not (target / "meta.json").exists():
        print(f"# perfbench: building fixtures into {target} "
              f"({num_nodes} nodes) ...", flush=True)
        _build(target, num_nodes)
    with np.load(target / "graph.npz") as stored:
        arrays = {key: stored[key] for key in stored.files}
    artifacts = {conv: QuantizedArtifact.load(target / conv)
                 for conv in ("gcn", "gat")}
    meta = json.loads((target / "meta.json").read_text())
    return Fixtures(arrays=arrays, artifacts=artifacts,
                    build_seconds={key: float(meta[key]) for key in
                                   ("graphs.generate_s", "serving.export_s")})
