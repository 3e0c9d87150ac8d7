"""The benchmark's artifacts are byte-stable across module refactors.

``perfbench/fixtures._train_artifact`` is the recipe that produces the two
artifacts every ``perfbench`` workload serves (literal 4/8-bit assignment,
two QAT epochs on a 2k-node SBM calibration graph, ``default_rng(0)``).  A
refactor of the quantized module family must not move a single weight,
scale or metadata field of them: the digests below (every npz array plus
the JSON sidecar) were captured at the commit before the ``Quant*`` /
``Relaxed*`` families were merged.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

FIXTURES_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "fixtures.py"

GOLDEN = {
    ("gcn", 1): "4d1c5ee9996118cfb8caba1dfaa607e76037bf84a8e2d8cddbe71aeef32d5d48",
    ("gat", 4): "aeedbc3e5d7e72915fe584c7ba48b8ce89d6ed32dd0c704501141911c295c23d",
}


@pytest.fixture(scope="module")
def fixtures():
    spec = importlib.util.spec_from_file_location("perfbench_fixtures", FIXTURES_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass resolves annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def calibration(fixtures):
    return fixtures._sbm_graph(fixtures.CALIBRATION_NODES, fixtures.CALIBRATION_SEED)


def artifact_digest(artifact, directory: Path) -> str:
    npz_path, json_path = artifact.save(directory / "artifact")
    digest = hashlib.sha256(json_path.read_bytes())
    with np.load(npz_path) as arrays:
        for key in sorted(arrays.files):
            array = arrays[key]
            digest.update(f"{key}:{array.dtype}:{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("conv,heads", sorted(GOLDEN))
def test_perfbench_artifact_is_byte_identical(conv, heads, fixtures, calibration,
                                              tmp_path):
    artifact = fixtures._train_artifact(conv, heads, calibration)
    assert artifact_digest(artifact, tmp_path) == GOLDEN[(conv, heads)]
