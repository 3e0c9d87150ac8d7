"""Bitwise goldens for the differentiable bit-width search (Algorithm 1).

Each case builds the relaxed architecture through the public builders, runs
a few search epochs with a fixed seed and compares, *bitwise*, every
relaxation vector ``alpha`` (in ``relaxed_quantizers`` traversal order, so
the order Equation 8 is summed in is pinned too), the per-epoch loss and
penalty values, and the exported assignment against literals.

The literals were captured at the commit that made Equation 8 count every
component once (the adjacency quantizer used to be traversed twice); the
gat / transformer entries are also bit-identical to the commit before it,
which the double count never touched.  Two more cases pin the sampled
training pipeline around the search: ``MixQNodeClassifier.fit`` with
``minibatch=True`` (alphas, search loss, assignment, accuracy and the
sha256 of the final eval logits) and the sampled uniform-QAT row of
``run_uniform_qat``.  A refactor of the module families
must leave every literal untouched.  On a mismatch the assertion message
carries the freshly computed record.
"""

import hashlib

import numpy as np
import pytest

from repro.core.build import (
    build_relaxed_graph_classifier,
    build_relaxed_node_classifier,
    layer_dimensions,
)
from repro.core.mixq import MixQNodeClassifier
from repro.core.penalty import relaxed_quantizers
from repro.core.selection import search_graph_bitwidths, search_node_bitwidths
from repro.experiments.common import run_uniform_qat
from repro.experiments.config import QUICK
from repro.graphs.datasets import load_node_dataset
from repro.graphs.sampling import NeighborSampler
from repro.tensor.tensor import no_grad

BIT_CHOICES = (2, 4, 8)
HIDDEN = 8
LAMBDA = 1.0

#: ``case -> (conv family, extra builder kwargs, minibatch)``.
NODE_CASES = {
    "gcn": ("gcn", {}, False),
    "gin": ("gin", {}, False),
    "sage": ("sage", {}, False),
    "tag": ("tag", {"hops": 2}, False),
    "gat": ("gat", {}, False),
    "gat-h2": ("gat", {"heads": 2}, False),
    "transformer": ("transformer", {}, False),
    "transformer-h2": ("transformer", {"heads": 2}, False),
    "gcn-minibatch": ("gcn", {}, True),
}


def _hex(values) -> str:
    return np.asarray(values, dtype=np.float32).tobytes().hex()


def _record(model, result) -> dict:
    return {
        "alphas": [_hex(q.alpha.data) for q in relaxed_quantizers(model)],
        "loss": _hex(result.loss_history),
        "penalty": _hex(result.penalty_history),
        "assignment": dict(result.assignment),
    }


def run_node_case(case: str, graph) -> dict:
    family, extra, minibatch = NODE_CASES[case]
    dims = layer_dimensions(graph.num_features, HIDDEN, graph.num_classes, 2)
    model = build_relaxed_node_classifier(family, dims, BIT_CHOICES,
                                          rng=np.random.default_rng(0), **extra)
    sampler = None
    if minibatch:
        sampler = NeighborSampler(graph, 5, batch_size=32, num_layers=2,
                                  seed_nodes=graph.train_mask, seed=0)
    result = search_node_bitwidths(model, graph, LAMBDA, epochs=4, sampler=sampler)
    return _record(model, result)


def run_graph_case(graphs) -> dict:
    model = build_relaxed_graph_classifier(graphs[0].num_features, HIDDEN, 2, (4, 8),
                                           num_layers=2, rng=np.random.default_rng(0))
    result = search_graph_bitwidths(model, graphs[:12], 0.5, epochs=2, batch_size=6,
                                    rng=np.random.default_rng(3))
    return _record(model, result)


def _quick_cora():
    return load_node_dataset("cora", scale=QUICK.citation_scale, seed=0)


def run_mixq_minibatch_case(monkeypatch) -> dict:
    """The sampled MixQ pipeline end to end: search, finalize, QAT, eval."""
    import repro.core.mixq as mixq_module

    searched = []

    def search(model, *args, **kwargs):
        searched.append(model)
        return search_node_bitwidths(model, *args, **kwargs)

    monkeypatch.setattr(mixq_module, "search_node_bitwidths", search)
    graph = _quick_cora()
    mixq = MixQNodeClassifier("gcn", graph.num_features, QUICK.hidden_features,
                              graph.num_classes, seed=0)
    result = mixq.fit(graph, search_epochs=3, train_epochs=3, minibatch=True,
                      fanout=5, batch_size=32)
    mixq.quantized_model.eval()
    with no_grad():
        logits = mixq.quantized_model(graph).data
    return {
        "alphas": [_hex(q.alpha.data) for q in relaxed_quantizers(searched[0])],
        "loss": _hex(result.search.loss_history),
        "assignment": dict(result.assignment),
        "accuracy": result.accuracy,
        "logits": hashlib.sha256(
            np.asarray(logits, dtype=np.float32).tobytes()).hexdigest(),
    }


def run_uniform_qat_minibatch_case() -> dict:
    row = run_uniform_qat(_quick_cora(), 8, minibatch=True)
    return {"accuracy": row.mean_accuracy, "gbitops": row.giga_bit_operations}


GOLDEN = {'gat': {'alphas': ['d5b1233d46bd223dbdaa23bd',
                    '384af73c6f56d4bc214505bd',
                    'a56ec1bc9da7003d8894d43b',
                    '3c8a0a3d3606f1bc62810fbd',
                    '989a1bbd46e3183d725f153d',
                    '6a541c3db8261bbd7a7007bd',
                    'b3c5173d72031bbd7e5c11bd',
                    '6ec518bdb7d5153d27721a3d',
                    'f2f71dbd2464823b865c223d'],
         'assignment': {'conv0.aggregate_out': 4,
                        'conv0.attention': 2,
                        'conv0.input': 2,
                        'conv0.linear_out': 4,
                        'conv0.weight': 2,
                        'conv1.aggregate_out': 8,
                        'conv1.attention': 8,
                        'conv1.linear_out': 2,
                        'conv1.weight': 2},
         'loss': 'b305b23feaa3ae3f40f0aa3ff302ad3f',
         'penalty': '5765983b082d983bb0e3973b3ca3973b'},
 'gat-h2': {'alphas': ['d5b1233d42bd223dbdaa23bd',
                       'a8328b3b6c510cbc10a7403b',
                       '85f087bc565cc83cee9f2d3c',
                       '6ef7f43c1739f7bc042df2bc',
                       'b279073d310e11bdeab9eabc',
                       '99590d3dca5a17bdb63bffbc',
                       '8cc70fbaec9cb83c696b01bd',
                       '76bc0b3d28e207bddc700ebd',
                       '64a4003d22a8f4bce79701bd'],
            'assignment': {'conv0.aggregate_out': 2,
                           'conv0.attention': 2,
                           'conv0.input': 2,
                           'conv0.linear_out': 4,
                           'conv0.weight': 2,
                           'conv1.aggregate_out': 2,
                           'conv1.attention': 2,
                           'conv1.linear_out': 4,
                           'conv1.weight': 2},
            'loss': 'e36bb33fcca4b23fc371b13fb5bfb03f',
            'penalty': '0260ba3b10c8b93ba42bb93b6488b83b'},
 'gcn': {'alphas': ['d7b1233d4cbd223dbbaa23bd',
                    '06d418bdc5e20b3dd4c21f3d',
                    '2ac71cbdb8831e3d8f411a3d',
                    'a9387e3c9ef074bcb6eb82bc',
                    'e84cd8bbecb1cf3a8c7e013d',
                    'e61d283cf6fb29bc3ebc23bc',
                    'bf4bc3bc019dc93c4526b83c',
                    'cee7043d165003bd1c3c06bd',
                    '5f9202bd8a62073db4e1f83c'],
         'assignment': {'conv0.adjacency': 2,
                        'conv0.aggregate_out': 8,
                        'conv0.input': 2,
                        'conv0.linear_out': 4,
                        'conv0.weight': 8,
                        'conv1.adjacency': 2,
                        'conv1.aggregate_out': 4,
                        'conv1.linear_out': 4,
                        'conv1.weight': 2},
         'loss': 'cd9cb83feacbb33fc286b33fb747ae3f',
         'penalty': '5765983b8b23983b1ceb973bd8b5973b'},
 'gcn-minibatch': {'alphas': ['266ef23d462bdf3dbe11f2bd',
                              'c8c799bd4d81a93ddc5d7c3d',
                              '0c4105bdb4ebf83c1b80043d',
                              'aea978bdc98a873dac09563d',
                              '284ebebd581cc93d2dd9ae3d',
                              '84122a3d45a706bd95a03ebd',
                              '93277b3b99d01c3c17d418bd',
                              '22d3dbbcdefcd73ce04fde3c',
                              '6f20373dc62c05bd725b22bd'],
                   'assignment': {'conv0.adjacency': 4,
                                  'conv0.aggregate_out': 4,
                                  'conv0.input': 2,
                                  'conv0.linear_out': 8,
                                  'conv0.weight': 4,
                                  'conv1.adjacency': 8,
                                  'conv1.aggregate_out': 2,
                                  'conv1.linear_out': 4,
                                  'conv1.weight': 2},
                   'loss': 'c3f1b33ff7f2ae3f98aaaa3f6a70a53f',
                   'penalty': 'e044603b6665613bff17583bdc50593b'},
 'gin': {'alphas': ['d6b1233d4cbd223dbcaa23bd',
                    '02e60f3d3fd50fbdc9fd0fbd',
                    'e2f92b3c5b27133dcfcdb3bc',
                    '75bf19bd8125183d4e8f1a3d',
                    'e6790f3d5acf11bd304d0dbd',
                    '09d50fbd45db143d46870a3d',
                    '6dd6c9bcdfcef43c8fd56b3c',
                    '017c123d276b12bdc99312bd',
                    'e93d1cbdfe511b3d0dae1c3d',
                    'd7a21cbd55ba1a3d98391d3d',
                    '78b4163debc216bd4c9d16bd',
                    'cf048bbb20190b3cfcbdd2b9',
                    '7267143dc65514bdf93014bd'],
         'assignment': {'conv0.adjacency': 2,
                        'conv0.aggregate_out': 4,
                        'conv0.input': 2,
                        'conv0.output': 4,
                        'conv0.weight_0': 8,
                        'conv0.weight_1': 4,
                        'conv1.adjacency': 2,
                        'conv1.aggregate_out': 8,
                        'conv1.output': 2,
                        'conv1.weight_0': 8,
                        'conv1.weight_1': 4},
         'loss': '7bcd164038ce004043efb53f88b6b03f',
         'penalty': 'adfaec3b0843ec3b57b3eb3bca2aeb3b'},
 'gin-graph': {'alphas': ['f759233d845923bd',
                          'fd66203d286220bd',
                          '0aafdf3c18afdfbc',
                          '141c273c721c27bc',
                          '9c380c3da4380cbd',
                          '51a2e43c4fa2e4bc',
                          'b027153cf72715bc',
                          '8164203d9a6420bd',
                          '3524e3bc3c24e33c',
                          '1c4d12bd1b4d123d',
                          '86fb1c3c8cfb1cbc',
                          '3245b4bc3345b43c',
                          '40794d3c5e794dbc',
                          'f8cd61bc46cd613c',
                          'b3ce0dbdafce0d3d',
                          '729c453c729c45bc',
                          'd902f5bcd702f53c'],
               'assignment': {'conv0.adjacency': 4,
                              'conv0.aggregate_out': 4,
                              'conv0.input': 4,
                              'conv0.output': 4,
                              'conv0.weight_0': 4,
                              'conv0.weight_1': 4,
                              'conv1.adjacency': 4,
                              'conv1.aggregate_out': 8,
                              'conv1.output': 4,
                              'conv1.weight_0': 8,
                              'conv1.weight_1': 8,
                              'head0.output': 8,
                              'head0.weight': 8,
                              'head1.output': 8,
                              'head1.weight': 4},
               'loss': 'eee823404205b33f',
               'penalty': '60d8183c912a183c'},
 'mixq-minibatch': {'accuracy': 0.546875,
                    'alphas': ['684422baa4dad439378fb13a',
                               'b232f83c5c490fbd986adbbc',
                               '7167583da47250bde4ec50bd',
                               '4f3213be823c133ed396123e',
                               '61d1bfbd442fb83d5a02c13d',
                               '1626b93b37ca31bc46d19bba',
                               '270ae7bdc540c43dd538d33d',
                               '65210ebe2808073e21e5113e',
                               'c083edbd71fff43d09c9943d'],
                    'assignment': {'conv0.adjacency': 4,
                                   'conv0.aggregate_out': 8,
                                   'conv0.input': 8,
                                   'conv0.linear_out': 2,
                                   'conv0.weight': 2,
                                   'conv1.adjacency': 8,
                                   'conv1.aggregate_out': 4,
                                   'conv1.linear_out': 8,
                                   'conv1.weight': 2},
                    'logits': '9ce61f86fc7149c515b9afd4b81e459e074ffb45dad37e9ba4d14268735e81e2',
                    'loss': '11a7f83fd4d1f43f4285ee3f'},
 'qat8-minibatch': {'accuracy': 0.828125, 'gbitops': 0.015471328},
 'sage': {'alphas': ['d0b1233d24bd223dc1aa23bd',
                     '7e0b1d3d78c41dbd9cdc1bbd',
                     '341a0c3d97a704bd22f710bd',
                     '2c9821bd3a82213d739b213d',
                     '5059e63cf89af6bcac27d1bc',
                     '69f71abdfa221a3d865d153d',
                     'b203233d89ee22bdda1223bd',
                     '608a08bdccc1ce3c966f1c3d',
                     '53ad15bd4b41113d58c3183d',
                     '014422bdb743213ddf44223d',
                     '558bdebccb75023d9f79b43c'],
          'assignment': {'conv0.adjacency': 2,
                         'conv0.aggregate_out': 2,
                         'conv0.input': 2,
                         'conv0.output': 4,
                         'conv0.weight_neighbour': 2,
                         'conv0.weight_root': 8,
                         'conv1.adjacency': 2,
                         'conv1.aggregate_out': 8,
                         'conv1.output': 4,
                         'conv1.weight_neighbour': 8,
                         'conv1.weight_root': 8},
          'loss': '2031d43f85adc73fb771bb3fc0bab53f',
          'penalty': '5785d63b9603d63b6082d53b7009d53b'},
 'tag': {'alphas': ['dab1233d66bd223db8aa23bd',
                    'b3d9c13c1cb8c4bc2db2bebc',
                    '04241a3d946118bdf79e1abd',
                    'f6511ebdced7203d12d51a3d',
                    'd4b10ebd18860e3d87b30d3d',
                    'df341d3dca691fbd986219bd',
                    '366309bd8bf6063db0660a3d',
                    'a1e61e3d5fdd1dbd93d21fbd',
                    '70161abdf4e8193d182b173d',
                    'd8ac283c81e009bd78707bbb',
                    'ba79113d30961abde8b807bd',
                    'ccbf923a0f0113bd3f6faf3c',
                    '79301a3d53ba12bdd67b1ebd'],
         'assignment': {'conv0.adjacency': 2,
                        'conv0.hop_out': 2,
                        'conv0.input': 2,
                        'conv0.output': 8,
                        'conv0.weight_0': 4,
                        'conv0.weight_1': 4,
                        'conv0.weight_2': 2,
                        'conv1.adjacency': 2,
                        'conv1.hop_out': 4,
                        'conv1.output': 2,
                        'conv1.weight_0': 2,
                        'conv1.weight_1': 2,
                        'conv1.weight_2': 8},
         'loss': '84f6cb3fd3e0d53f13e3b43f7467ab3f',
         'penalty': '5725e03b8092df3b89ffde3bd874de3b'},
 'transformer': {'alphas': ['d4b1233d43bd223dbdaa23bd',
                            '88c3df3acbbd893c2dad13bd',
                            '67df163d48a414bddce616bd',
                            'ff1c14bd5384173d7b0f0e3d',
                            '0134013de4eeb8bc597f15bd',
                            '2bb2053daede04bd553b06bd',
                            'd24bdb3c3c4de1bc0d2fd0bc',
                            'ea73c53b926516bb118ce6bc',
                            '7ff21e3d3af21cbd9c6d1cbd',
                            '94c21abd93951b3d2a2f193d',
                            'c8444e3c4f8299bc1b39c7bb',
                            'e458e03c8de5eabca0c4cfbc',
                            'fc7a963c84a4ee3cc933c0bc'],
                 'assignment': {'conv0.aggregate_out': 2,
                                'conv0.attention': 2,
                                'conv0.input': 2,
                                'conv0.value_out': 2,
                                'conv0.weight_key': 2,
                                'conv0.weight_query': 4,
                                'conv0.weight_value': 4,
                                'conv1.aggregate_out': 4,
                                'conv1.attention': 2,
                                'conv1.value_out': 2,
                                'conv1.weight_key': 2,
                                'conv1.weight_query': 2,
                                'conv1.weight_value': 4},
                 'loss': '5358b33f77e4b23f9001af3f0bfab13f',
                 'penalty': '55e5a23b6c41a23b8ca3a13b5726a13b'},
 'transformer-h2': {'alphas': ['d4b1233d40bd223dbeaa23bd',
                               'e406223df92d20bdeeb320bd',
                               'b1eafc3c3b8482bc724d10bd',
                               '4ac49fbc1825b33c34228e3c',
                               '84ed013dced50dbdde97e0bc',
                               'ddae35bc1398033c10065b3c',
                               '6261b23c6e3b84bc6b51eebc',
                               '582ae03c4e769dbc8e8efebc',
                               '6f221e3d458a02bdcfcd1cbd',
                               'e554f3bc3839f73c1f56ec3c',
                               '6b0eed3ca3bee6bcd341a1bc',
                               '789621bd4637223d7431203d',
                               '5d600fbd4aef123df260fa3c'],
                    'assignment': {'conv0.aggregate_out': 2,
                                   'conv0.attention': 8,
                                   'conv0.input': 2,
                                   'conv0.value_out': 2,
                                   'conv0.weight_key': 2,
                                   'conv0.weight_query': 2,
                                   'conv0.weight_value': 4,
                                   'conv1.aggregate_out': 4,
                                   'conv1.attention': 4,
                                   'conv1.value_out': 2,
                                   'conv1.weight_key': 2,
                                   'conv1.weight_query': 2,
                                   'conv1.weight_value': 4},
                    'loss': 'a70db23fefa8b03f3290af3f3ff1af3f',
                    'penalty': 'ac0ac63bdd84c53bb02cc53b91e4c43b'}}


@pytest.mark.parametrize("case", sorted(NODE_CASES))
def test_node_search_is_bitwise_stable(case, sbm_graph):
    record = run_node_case(case, sbm_graph)
    assert record == GOLDEN[case], f"fresh record for {case!r}: {record!r}"


def test_graph_search_is_bitwise_stable(tu_graphs):
    record = run_graph_case(tu_graphs)
    assert record == GOLDEN["gin-graph"], f"fresh record: {record!r}"


def test_mixq_minibatch_pipeline_is_bitwise_stable(monkeypatch):
    record = run_mixq_minibatch_case(monkeypatch)
    assert record == GOLDEN["mixq-minibatch"], f"fresh record: {record!r}"


def test_uniform_qat_minibatch_row_is_stable():
    record = run_uniform_qat_minibatch_case()
    assert record == GOLDEN["qat8-minibatch"], f"fresh record: {record!r}"
