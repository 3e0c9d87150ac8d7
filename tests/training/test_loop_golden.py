"""Bitwise goldens for the optimisation-loop paths no other golden pins.

The search goldens pin the joint objective and the FP32 goldens pin plain
training, but several paths through the training and search loops had no
literal behind them:

* ``extra_penalty`` — only the A²Q baseline adds a penalty to node
  training (``run_a2q`` on the quick Cora stand-in: accuracy, bits, GBitOPs);
* Algorithm 1's decoupled routing (``penalty_only_alphas=True``) on a gcn
  search: alphas, per-epoch loss and penalty, assignment;
* ``MixQGraphClassifier.fit`` end to end on 12 TU graphs: search, QAT,
  evaluation (assignment, accuracy, bits, GBitOPs);
* Table 8's uniform-QAT ("DQ INT4") and MixQ(λ=1) rows: fold accuracies,
  bits and GBitOPs;
* node training's validation selection: ``best_epoch``, the loss history
  and the sha256 of the logits of the restored best state.

Scalars are compared exactly and float32 vectors as their hex bytes.  On a
mismatch the assertion message carries the freshly computed record.
"""

import hashlib

import numpy as np

from repro.core.build import (
    build_node_model,
    build_relaxed_node_classifier,
    layer_dimensions,
)
from repro.core.mixq import MixQGraphClassifier
from repro.core.penalty import relaxed_quantizers
from repro.core.selection import search_node_bitwidths
from repro.experiments.common import run_a2q
from repro.experiments.config import QUICK
from repro.experiments.graph_tables import table8_graph_classification
from repro.graphs.datasets import load_node_dataset
from repro.tensor.tensor import no_grad
from repro.training.trainer import train_node_classifier


def _hex(values) -> str:
    return np.asarray(values, dtype=np.float32).tobytes().hex()


def _sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float32).tobytes()).hexdigest()


def _quick_cora():
    return load_node_dataset("cora", scale=QUICK.citation_scale, seed=0)


def run_a2q_row() -> dict:
    row = run_a2q(_quick_cora(), QUICK.hidden_features, epochs=QUICK.train_epochs, seed=0)
    return {"accuracy": row.mean_accuracy, "bits": row.bits,
            "gbitops": row.giga_bit_operations,
            "quant_parameters": row.extra["quant_parameters"]}


def run_decoupled_search(graph) -> dict:
    dims = layer_dimensions(graph.num_features, 8, graph.num_classes, 2)
    model = build_relaxed_node_classifier("gcn", dims, (2, 4, 8),
                                          rng=np.random.default_rng(0))
    result = search_node_bitwidths(model, graph, 1.0, epochs=4, penalty_only_alphas=True)
    return {
        "alphas": [_hex(q.alpha.data) for q in relaxed_quantizers(model)],
        "loss": _hex(result.loss_history),
        "penalty": _hex(result.penalty_history),
        "assignment": dict(result.assignment),
    }


def run_graph_fit(graphs) -> dict:
    mixq = MixQGraphClassifier(graphs[0].num_features, 8, 2, num_layers=2,
                               bit_choices=(4, 8), lambda_value=1.0, seed=0)
    result = mixq.fit(graphs[:8], graphs[8:12], search_epochs=2, train_epochs=2,
                      batch_size=4)
    return {"assignment": dict(result.assignment), "accuracy": result.accuracy,
            "bits": result.average_bits, "gbitops": result.giga_bit_operations}


def run_table8_quantized_rows() -> dict:
    rows = table8_graph_classification(("imdb-b",), scale=QUICK, num_layers=3,
                                       lambdas=(1.0,))["imdb-b"]
    return {row.method: (row.accuracies, row.bits, row.giga_bit_operations)
            for row in rows[1:]}


def run_validation_selection() -> dict:
    graph = _quick_cora()
    model = build_node_model("gcn", graph.num_features, 16, graph.num_classes,
                             rng=np.random.default_rng(0))
    result = train_node_classifier(model, graph, epochs=30)
    model.eval()
    with no_grad():
        logits = model(graph).data
    return {"best_epoch": result.best_epoch, "loss": _hex(result.loss_history),
            "val_accuracy": result.val_accuracy, "logits": _sha(logits)}


GOLDEN = {'a2q': {'accuracy': 0.890625,
         'bits': 4.0,
         'gbitops': 0.017414368,
         'quant_parameters': 1296},
 'gcn-decoupled': {'alphas': ['d4b1233d43bd223dbdaa23bd',
                              '9c321f3dc133ae3c608720bd',
                              '6431233d7e281d3d3b4523bd',
                              '20d3223dfddc163d68fe22bd',
                              '6431233d7e281d3d3b4523bd',
                              '416bdc3bc85d91bb64e835bc',
                              'ee31223db69a093dd18922bd',
                              '20d3223dfddc163d68fe22bd',
                              'ee31223db69a093dd18922bd'],
                   'assignment': {'conv0.adjacency': 2,
                                  'conv0.aggregate_out': 2,
                                  'conv0.input': 2,
                                  'conv0.linear_out': 2,
                                  'conv0.weight': 2,
                                  'conv1.adjacency': 2,
                                  'conv1.aggregate_out': 2,
                                  'conv1.linear_out': 2,
                                  'conv1.weight': 2},
                   'loss': 'cd9cb83fd297b33fe460b33f932fae3f',
                   'penalty': '5765983b33ac973b6df5963b9441963b'},
 'graph-fit': {'accuracy': 0.75,
               'assignment': {'conv0.adjacency': 4,
                              'conv0.aggregate_out': 8,
                              'conv0.input': 4,
                              'conv0.output': 4,
                              'conv0.weight_0': 8,
                              'conv0.weight_1': 8,
                              'conv1.adjacency': 4,
                              'conv1.aggregate_out': 4,
                              'conv1.output': 8,
                              'conv1.weight_0': 8,
                              'conv1.weight_1': 4,
                              'head0.output': 4,
                              'head0.weight': 8,
                              'head1.output': 8,
                              'head1.weight': 8},
               'bits': 6.133333333333334,
               'gbitops': 0.000584616},
 'selection': {'best_epoch': 24,
               'logits': '58c83544537ed6c6c89de80fdb946196cc8a1dccd917d98f15a877cdf33300b6',
               'loss': '9683f83f0915f73f3385f43fc9f0f13f398fef3f9a00ed3fa6d6e93f1f8ce53f79fce13fbe70de3fc6c9da3ff0d7d63f0074d23f1a79ce3ff18fc73ffc9cc43fe118c03ffbacba3f8825b93f5886b03f18c6ad3f7a58a23fb037a53ffe48a33f91e2953f7928973f9b6a963f96f38e3f927e8b3f5baf883f',
               'val_accuracy': 0.8125},
 'table8': {'DQ INT4': ([0.8, 0.65, 0.85], 4.0, 0.01014576),
            'MixQ(λ=1)': ([0.95, 0.8, 0.85], 5.8, 0.018124085333333335)}}


def test_a2q_row_is_stable():
    record = run_a2q_row()
    assert record == GOLDEN["a2q"], f"fresh record: {record!r}"


def test_decoupled_search_is_bitwise_stable(sbm_graph):
    record = run_decoupled_search(sbm_graph)
    assert record == GOLDEN["gcn-decoupled"], f"fresh record: {record!r}"


def test_mixq_graph_fit_is_stable(tu_graphs):
    record = run_graph_fit(tu_graphs)
    assert record == GOLDEN["graph-fit"], f"fresh record: {record!r}"


def test_table8_quantized_rows_are_stable():
    record = run_table8_quantized_rows()
    assert record == GOLDEN["table8"], f"fresh record: {record!r}"


def test_validation_selection_is_bitwise_stable():
    record = run_validation_selection()
    assert record == GOLDEN["selection"], f"fresh record: {record!r}"
