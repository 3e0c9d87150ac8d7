"""Bitwise goldens for the FP32 row every savings ratio is taken against.

The paper reports its savings (BitOPs, bits) as ratios against an FP32
row.  This file pins that row: trained FP32 logits for every conv family
(and one minibatch case), the quick-scale Figure 1 points, the
``run_fp32`` rows of Tables 3 / 6 on the Cora stand-in and the FP32 fold
accuracies of Table 8.  Logits are compared as the sha256 of their float32
bytes, scalars exactly.  A refactor of the model families must leave every
literal untouched.  On a mismatch the assertion message carries the freshly
computed record.
"""

import hashlib

import numpy as np
import pytest

from repro.core.build import build_node_model, layer_dimensions
from repro.experiments.common import run_fp32
from repro.experiments.config import QUICK
from repro.experiments.figures import figure1_operations_vs_accuracy
from repro.experiments.graph_tables import table8_graph_classification
from repro.graphs.datasets import load_node_dataset
from repro.quant.qmodules import QuantNodeClassifier
from repro.tensor.tensor import no_grad
from repro.training.trainer import train_node_classifier, training_sampler

HIDDEN = 16
EPOCHS = 30
TAG_HOPS = 2

#: ``case -> (conv family, heads, minibatch)``.
LOGIT_CASES = {
    "gcn": ("gcn", 1, False),
    "sage": ("sage", 1, False),
    "gin": ("gin", 1, False),
    "gat-h1": ("gat", 1, False),
    "gat-h4": ("gat", 4, False),
    "transformer-h2": ("transformer", 2, False),
    "tag": ("tag", 1, False),
    "gcn-minibatch": ("gcn", 1, True),
}


def _sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float32).tobytes()).hexdigest()


def _fp32_model(family: str, heads: int, graph):
    rng = np.random.default_rng(0)
    if family == "tag":
        # build_node_model has no hops argument
        dims = layer_dimensions(graph.num_features, HIDDEN, graph.num_classes, 2)
        return QuantNodeClassifier.from_assignment(dims, "tag", {}, hops=TAG_HOPS,
                                                   rng=rng)
    return build_node_model(family, graph.num_features, HIDDEN, graph.num_classes,
                            heads=heads, rng=rng)


def run_logit_case(case: str, graph) -> dict:
    family, heads, minibatch = LOGIT_CASES[case]
    model = _fp32_model(family, heads, graph)
    if minibatch:
        result = train_node_classifier(
            model, graph, epochs=3,
            sampler=training_sampler(model, graph, 5, batch_size=32, seed=0))
    else:
        result = train_node_classifier(model, graph, epochs=EPOCHS, lr=0.01)
    model.eval()
    with no_grad():
        logits = model(graph).data
    return {"logits": _sha(logits), "accuracy": result.test_accuracy}


def run_figure1() -> dict:
    return {f"{point.layer_type}-{point.num_layers}":
            (point.operations, point.accuracy, point.num_parameters)
            for point in figure1_operations_vs_accuracy(scale=QUICK)}


def run_fp32_rows() -> dict:
    graph = load_node_dataset("cora", scale=QUICK.citation_scale, seed=0)
    rows = {}
    for family in ("gcn", "sage"):
        row = run_fp32(graph, family, QUICK.hidden_features,
                       epochs=QUICK.train_epochs, seed=0)
        rows[family] = (row.mean_accuracy, row.giga_bit_operations)
    return rows


def run_table8() -> dict:
    results = table8_graph_classification(("imdb-b", "proteins"), scale=QUICK,
                                          num_layers=3, lambdas=())
    return {dataset: (rows[0].accuracies, rows[0].giga_bit_operations)
            for dataset, rows in results.items()}


GOLDEN = {'figure1': {'gat-1': (822196, 0.625, 1218),
             'gat-2': (1984844, 0.75, 2917),
             'gat-3': (2243532, 0.75, 3221),
             'gcn-1': (802564, 0.8125, 1204),
             'gcn-2': (1933916, 0.875, 2871),
             'gcn-3': (2161308, 0.8125, 3143),
             'gin-1': (1413864, 0.78125, 1260),
             'gin-2': (2716288, 0.546875, 3199),
             'gin-3': (3114752, 0.296875, 3743),
             'sage-1': (2044692, 0.796875, 2401),
             'sage-2': (4235524, 0.796875, 5719),
             'sage-3': (4618436, 0.828125, 6247),
             'tag-1': (4910652, 0.890625, 4795),
             'tag-2': (9364188, 0.84375, 11415),
             'tag-3': (10201884, 0.875, 12455),
             'transformer-1': (2387316, 0.765625, 3598),
             'transformer-2': (5723484, 0.8125, 8567),
             'transformer-3': (6347772, 0.796875, 9351)},
 'fp32_rows': {'gcn': (0.859375, 0.061885312), 'sage': (0.8125, 0.135536768)},
 'logits': {'gat-h1': {'accuracy': 1.0,
                       'logits': '9521d11498bfd784b594ad864bb13776beef5d05abc8dc25982b55c939c70d7a'},
            'gat-h4': {'accuracy': 1.0,
                       'logits': '77dba520b1a838b51510ab2f981c9f1186b0d519d6d9af8e5409a365f2523fd6'},
            'gcn': {'accuracy': 1.0,
                    'logits': 'da2a6b1b6bb44733c81df79a1fa33ba6e4f31941b18a38a2b39f29e55435d389'},
            'gcn-minibatch': {'accuracy': 1.0,
                              'logits': '9e8a9cce9cb893710c35fa639884cd7f00d877c38b2a596e2f359138ed1b5fa0'},
            'gin': {'accuracy': 1.0,
                    'logits': 'a31f78576f246b5fe211fc3be00c706615f6f7398112a091d9ff9adbf4c3ecd7'},
            'sage': {'accuracy': 1.0,
                     'logits': 'bc96320265b6d849000207a9635cf8e301f9a718e0116a49090a8d0dc2fc8730'},
            'tag': {'accuracy': 1.0,
                    'logits': 'dd6b173f10b0513750ac60a7777c42e3532514e42ab3a652f08ff6ce30c18f75'},
            'transformer-h2': {'accuracy': 1.0,
                               'logits': 'cea2a93dc0baa789bd91322a6e1b35a43a55c236fd4f0626de54716a104f680c'}},
 'table8': {'imdb-b': ([0.8, 0.75, 0.65], 0.08116608),
            'proteins': ([0.55, 0.5, 0.6], 0.118011968)}}


@pytest.mark.parametrize("case", sorted(LOGIT_CASES))
def test_fp32_logits_are_bitwise_stable(case, sbm_graph):
    record = run_logit_case(case, sbm_graph)
    assert record == GOLDEN["logits"][case], f"fresh record for {case!r}: {record!r}"


def test_figure1_points_are_stable():
    record = run_figure1()
    assert record == GOLDEN["figure1"], f"fresh record: {record!r}"


def test_fp32_rows_are_stable():
    record = run_fp32_rows()
    assert record == GOLDEN["fp32_rows"], f"fresh record: {record!r}"


def test_table8_fp32_folds_are_stable():
    record = run_table8()
    assert record == GOLDEN["table8"], f"fresh record: {record!r}"
