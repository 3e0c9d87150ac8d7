"""Bitwise goldens for served logits and BitOPs.

Every other serving test compares one execution path with another (block
with full graph, cached with uncached, sharded with single-process,
integer with QAT to a tolerance).  This file pins what the sessions
serve, absolutely: for each conv family and three artifacts it records
the sha256 of ``FullGraphSession.run().logits``, of
``BlockSession(fanouts=3).run(seeds).logits`` and the BitOPs totals of
both runs.  A refactor of the serving executor must leave every literal
untouched; on a mismatch the assertion message carries the freshly
computed record.

The three artifacts are the 8-bit ``parity_artifact`` (``int8``),
``parity_float_artifact`` (``fp32``) and ``mixed``: 8 bits everywhere
except ``conv0.input``, every ``linear_out`` and every ``value_out``,
which stay FP32, so the adjacency or attention is integer while the
operand it weighs is not.  Between them they reach every branch of the
served layer's aggregation and input-grid threading.  Perturbing one
branch at a time fails exactly these cases:

* integer sparse aggregation (Theorem-1 ``spmm``): ``gcn-int8``, and
  ``sage`` / ``gin`` / ``tag`` under ``int8`` and ``mixed``;
* float product over the fake-quantized adjacency: ``gcn``, ``sage``,
  ``gin``, ``tag`` under ``mixed``;
* float product over the unquantized adjacency: the same four under
  ``fp32``;
* integer edge aggregation (``edge_spmm``): ``gat-h1``, ``gat-h4``,
  ``transformer-h2`` under ``int8``;
* float edge aggregation over fake-quantized / unquantized attention:
  the same three under ``mixed`` / ``fp32``;
* input snapped onto the layer's own ``input`` grid: ``sage`` / ``gin`` /
  ``tag`` under ``int8``;
* input snapped onto the grid the previous layer's output sits on:
  ``sage`` / ``gin`` / ``tag`` under ``int8`` and ``mixed``;
* input kept in FP32: ``sage`` / ``gin`` / ``tag`` under ``fp32`` and
  ``mixed``.
"""

import hashlib

import numpy as np
import pytest

from repro.serving import BlockSession, FullGraphSession

#: Width and TAG depth of the ``parity_*`` fixtures (``tests/conftest.py``).
PARITY_HIDDEN = 16
PARITY_TAG_HOPS = 2

#: ``case -> (conv family, heads)``; TAG runs at ``PARITY_TAG_HOPS`` hops.
FAMILIES = {
    "gcn": ("gcn", 1),
    "sage": ("sage", 1),
    "gin": ("gin", 1),
    "gat-h1": ("gat", 1),
    "gat-h4": ("gat", 4),
    "transformer-h2": ("transformer", 2),
    "tag": ("tag", 1),
}
ARTIFACTS = ("int8", "fp32", "mixed")

#: Components the ``mixed`` artifact keeps in FP32 (everything else: 8 bits).
MIXED_FP32 = ("input", "linear_out", "value_out")

#: Seeds and sampler of the block run (a finite fanout, several batches).
BLOCK_FANOUT = 3
BLOCK_BATCH = 32
BLOCK_SEED = 7

#: ``(case, artifact) -> (full logits sha256, block logits sha256,
#: full BitOPs total, block BitOPs total)``.
GOLDEN = {
    ("gat-h1", "int8"): (
        "6e7903494fb55dc26a067999833187300c418da7f29428d6d88ecc9a3bab9eae",
        "48784f94b37614652e2852b1fd6fcf3f65e890a851331ff4f68ad3ba2f1cbfb4",
        1908224, 1846400),
    ("gat-h1", "fp32"): (
        "129d5d79898af593b7a7a02ca75855b024acdb8a5ce036bbf8256dfcb18cf45c",
        "42af4f165cbc7d49729221cdc03850d2ad9981cd396780129fe8bbd91a11efdb",
        5932544, 6058304),
    ("gat-h1", "mixed"): (
        "daea97f908f3d182e65b1f5a2bcfcb1277933aab1fdac38f298038f7eb260966",
        "6dae9d6837cb77cd2084874d851a8377cc287bac50e0dd0b7c831c27d7624f20",
        5552384, 5768768),
    ("gat-h4", "int8"): (
        "cfc55d27776b553742e0a9092719933d1717a549606fea66fa5bac3ca081c7e6",
        "002df84bf03f2bc3bac5f7f69a7c14aff86866b344803b81aef6552a0477d76f",
        3369728, 2590592),
    ("gat-h4", "fp32"): (
        "c9bc6478a5555bc8cd034ae25bb93723116c22230db366d12bab4a4e71d1d38e",
        "513874e1505b00fcc7c5e30c5b0df9dec2edaba5a47c7eecc94371937d2f3232",
        8889344, 7744256),
    ("gat-h4", "mixed"): (
        "433a95404900b838d71eb3b2f3c5de6279ed9fb1acde33e9e91e77d9fdf8f038",
        "554257851e22df484db2a3aea02ee674ab2a82461f9a71b0db29bea3eff0f84e",
        7403264, 6597632),
    ("gcn", "int8"): (
        "de61e7f410aeac8482f7c4fe1fb61c5af03acbe271bc122571ed615d29ac41df",
        "3c4e1ac589bb10ebcb356be59321d8611f66667a73c5780e8821286ea773943e",
        1341440, 1412448),
    ("gcn", "fp32"): (
        "a3cf403497cc6d9d9a7aa353a37241ec768c2461977bd007a4a0a657a4ea60b2",
        "8af964300807a2b3d79330b0b97a7fe12f4c632abf420be600d7ef7e23f4a4c5",
        5365760, 5649792),
    ("gcn", "mixed"): (
        "99c052be4295a0c04edcfd8b1c3133062488c334dc22cb10ae58d32f3e055e8d",
        "4facd1cbc68dfac7c00c667a94d92848073d835cccc5c2a961e62aa6b204ee4e",
        4985600, 5355168),
    ("gin", "int8"): (
        "ac3ecbb0045cbea93d4beddc077e960c421e431bfc130cb6c0be4f9940940983",
        "bf59cf2940bb7e17f8d1f0414e5d0784dbe98602f41b5afe28b93d1e07f615ee",
        2185728, 1438208),
    ("gin", "fp32"): (
        "6ef008702a7e9f64f370a16cd1cbcd5abdda1865815d61a0b5f0fa9b9e907f45",
        "ff1011c996fc48005ce6165dbc37b7878cec7841a41deb8423a35057c95117c7",
        8742912, 5752832),
    ("gin", "mixed"): (
        "ac3ecbb0045cbea93d4beddc077e960c421e431bfc130cb6c0be4f9940940983",
        "bf59cf2940bb7e17f8d1f0414e5d0784dbe98602f41b5afe28b93d1e07f615ee",
        3224064, 1978880),
    ("sage", "int8"): (
        "142d331d1281fdb3d456a5cb80dbb656d573c873e80de4fec052bf66d9b6efea",
        "ec4229b2a9ef32a0fab47a1bce93be55d9d085978ce8c0074e1489b8eaaf4516",
        2658048, 1778816),
    ("sage", "fp32"): (
        "0a60de800405b61c31a5ad5e994bfe7802f16c1baf96568cbce28cdaf38ebe95",
        "416990d4a5f680dcab28465acda0cdd24093620fb22fbc9fcd352c9401af178f",
        10632192, 7115264),
    ("sage", "mixed"): (
        "142d331d1281fdb3d456a5cb80dbb656d573c873e80de4fec052bf66d9b6efea",
        "ec4229b2a9ef32a0fab47a1bce93be55d9d085978ce8c0074e1489b8eaaf4516",
        6507264, 4497920),
    ("tag", "int8"): (
        "e244d4ced7c3377e3dbf9a28410e874dd8b67073448899a3fdaf8f6f7f0f3331",
        "fa57c22f66e8cc258e4be35aba433fc3c22cf7529c975b98ef064c54a142c57d",
        4375296, 4508928),
    ("tag", "fp32"): (
        "4301d5d56b732b287aab1367fc540c22406ce6789bd3d253f3d4bb6016c6f62a",
        "1d0d2b98f1037c775a451c90fbc79bc4e9f1089d2b5b972ebd28325ca1bd230b",
        17501184, 18035712),
    ("tag", "mixed"): (
        "e244d4ced7c3377e3dbf9a28410e874dd8b67073448899a3fdaf8f6f7f0f3331",
        "fa57c22f66e8cc258e4be35aba433fc3c22cf7529c975b98ef064c54a142c57d",
        8408832, 9252864),
    ("transformer-h2", "int8"): (
        "7b6f5fbbbcd4253bc3a2c8cfbdb1740b9a4b2f0b01838078b7dcb5673c9883f8",
        "9da2e947aa394a9c3f2132bc7b7ac51b13008ae8b55ff565d4b12245a4ca5e61",
        5440000, 4888448),
    ("transformer-h2", "fp32"): (
        "41b07b3c0d3611e66d46b8a1a49bffd289ecd1af80fd610642178006bd8e5e38",
        "fd5cd9ee4fd884021be98b1265c1708ae0c222b91b91f26a6c9c26ad8f51095a",
        17347072, 17767616),
    ("transformer-h2", "mixed"): (
        "ef8168ccbf406b910be6d1d73638cb4e0762d9867a3e744db098f36485fc76e1",
        "c099f852b5853c5fa756c860068f2ecd59922f89b4e009ec659a0301396ea276",
        15112192, 16035584),
}


def _sha(logits: np.ndarray) -> str:
    logits = np.ascontiguousarray(logits)
    digest = hashlib.sha256(f"{logits.dtype.str}:{logits.shape}".encode())
    digest.update(logits.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def mixed_artifact(parity_graph):
    """Memoised ``(family, heads) -> QuantizedArtifact`` of the mixed
    assignment, trained like ``parity_quant_model``."""
    from repro.core.search_space import conv_component_names
    from repro.quant.qmodules import QuantNodeClassifier
    from repro.serving import QuantizedArtifact
    from repro.training.trainer import train_node_classifier

    cache = {}

    def build(family: str, heads: int):
        key = (family, heads)
        if key not in cache:
            assignment = {
                name: 32 if name.split(".", 1)[1] in MIXED_FP32 else 8
                for name in conv_component_names(family, 2,
                                                 hops=PARITY_TAG_HOPS)}
            model = QuantNodeClassifier.from_assignment(
                [(parity_graph.num_features, PARITY_HIDDEN),
                 (PARITY_HIDDEN, parity_graph.num_classes)], family,
                assignment, dropout=0.0, hops=PARITY_TAG_HOPS, heads=heads,
                rng=np.random.default_rng(1))
            train_node_classifier(model, parity_graph, epochs=4, lr=0.02)
            model.eval()
            cache[key] = QuantizedArtifact.from_model(model)
        return cache[key]

    return build


def served_record(artifact, graph) -> tuple:
    full = FullGraphSession(artifact, graph).run()
    seeds = np.arange(0, graph.num_nodes, 3, dtype=np.int64)
    block = BlockSession(artifact, graph, fanouts=BLOCK_FANOUT,
                         batch_size=BLOCK_BATCH, seed=BLOCK_SEED).run(seeds)
    return (_sha(full.logits), _sha(block.logits),
            full.bit_operations.total_bit_operations,
            block.bit_operations.total_bit_operations)


@pytest.mark.parametrize("kind", ARTIFACTS)
@pytest.mark.parametrize("case", sorted(FAMILIES))
def test_served_outputs_are_pinned(case, kind, parity_graph, parity_artifact,
                                   parity_float_artifact, mixed_artifact):
    build = {"int8": parity_artifact, "fp32": parity_float_artifact,
             "mixed": mixed_artifact}[kind]
    record = served_record(build(*FAMILIES[case]), parity_graph)
    assert record == GOLDEN.get((case, kind)), f"fresh record: {record!r}"
