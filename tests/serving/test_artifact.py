"""Tests for the quantized deployment artifact (export + save/load)."""

import json

import numpy as np
import pytest

from repro.core.build import build_node_model
from repro.core.mixq import MixQNodeClassifier
from repro.nn.linear import Linear
from repro.quant.qmodules import (
    QuantNodeClassifier,
    gcn_component_names,
    uniform_assignment,
)
from repro.serving import (
    QUANTIZER_SLOTS,
    QuantizedArtifact,
    WEIGHT_SLOTS,
    artifact_paths,
)

CONV_TYPES = ("gcn", "sage", "gin")


class TestExport:
    @pytest.mark.parametrize("conv", CONV_TYPES)
    def test_export_structure(self, served_models, conv):
        artifact = QuantizedArtifact.from_model(served_models[conv])
        assert artifact.conv_type == conv
        assert artifact.num_layers == 2
        assert artifact.layer_dims[0][1] == 16
        for plan in artifact.layers:
            assert set(plan.weights) == set(WEIGHT_SLOTS[conv])
            assert set(plan.quantizers) == set(QUANTIZER_SLOTS[conv])
            for weight in plan.weights.values():
                assert weight.bits == 8
                # integer weights live on the signed int8 grid
                assert np.array_equal(weight.integers, np.rint(weight.integers))
                assert weight.integers.min() >= -128 and weight.integers.max() <= 127

    def test_export_metadata(self, served_models):
        artifact = QuantizedArtifact.from_model(served_models["gcn"],
                                                metadata={"dataset": "cora"})
        assert artifact.metadata["dataset"] == "cora"
        assert artifact.metadata["average_bits"] == pytest.approx(8.0)
        assert artifact.metadata["num_layers"] == 2
        assert any(key.startswith("conv0.") for key in
                   artifact.metadata["component_bits"])

    def test_input_quantizer_only_on_first_layer(self, served_models):
        artifact = QuantizedArtifact.from_model(served_models["gcn"])
        assert artifact.layers[0].params("input") is not None
        assert artifact.layers[1].params("input") is None

    def test_fp32_model_exports_as_float_artifact(self, small_cora, rng):
        """The FP32 model is the family at an empty assignment, so it exports
        to the float-export artifact: every weight and slot at 32 bits."""
        model = build_node_model("gcn", small_cora.num_features, 8,
                                 small_cora.num_classes, rng=rng)
        artifact = QuantizedArtifact.from_model(model)
        assert artifact.conv_type == "gcn"
        for plan in artifact.layers:
            assert all(weight.bits == 32 for weight in plan.weights.values())
            assert all(params is None for params in plan.quantizers.values())

    def test_rejects_non_quant_conv_stack(self):
        model = QuantNodeClassifier([Linear(4, 3)])
        with pytest.raises(TypeError):
            QuantizedArtifact.from_model(model)

    def test_accepts_finalized_mixq(self, small_cora):
        mixq = MixQNodeClassifier("gcn", small_cora.num_features, 8,
                                  small_cora.num_classes)
        with pytest.raises(TypeError):
            QuantizedArtifact.from_model(mixq)  # nothing finalized yet
        mixq.finalize(uniform_assignment(gcn_component_names(2), 4))
        artifact = QuantizedArtifact.from_model(mixq)
        assert artifact.conv_type == "gcn"
        assert artifact.layers[0].weights["weight"].bits == 4

    def test_requires_at_least_one_layer(self):
        with pytest.raises(ValueError):
            QuantizedArtifact(conv_type="gcn", layers=[])


class TestSaveLoad:
    @pytest.mark.parametrize("conv", CONV_TYPES)
    def test_roundtrip_is_bit_exact(self, served_models, conv, tmp_path):
        artifact = QuantizedArtifact.from_model(served_models[conv],
                                                metadata={"dataset": "cora"})
        artifact.save(tmp_path / "artifact.npz")
        loaded = QuantizedArtifact.load(tmp_path / "artifact.npz")

        assert loaded.conv_type == artifact.conv_type
        assert loaded.metadata == artifact.metadata
        for original, restored in zip(artifact.layers, loaded.layers):
            assert restored.in_features == original.in_features
            assert restored.out_features == original.out_features
            assert restored.eps == original.eps
            for name, weight in original.weights.items():
                other = restored.weights[name]
                assert np.array_equal(other.integers, weight.integers)
                assert other.scale == weight.scale
                assert other.bits == weight.bits
                if weight.bias is None:
                    assert other.bias is None
                else:
                    assert np.array_equal(other.bias, weight.bias)
            for name, params in original.quantizers.items():
                restored_params = restored.quantizers[name]
                if params is None:
                    assert restored_params is None
                    continue
                assert restored_params.as_scalars() == params.as_scalars()
                assert restored_params.qmin == params.qmin
                assert restored_params.qmax == params.qmax
                assert restored_params.bits == params.bits

    def test_paths_and_sidecar(self, served_models, tmp_path):
        artifact = QuantizedArtifact.from_model(served_models["gcn"])
        npz_path, json_path = artifact.save(tmp_path / "model")
        assert npz_path == tmp_path / "model.npz"
        assert json_path == tmp_path / "model.json"
        assert npz_path.exists() and json_path.exists()
        # either file of the pair can be handed to load()
        assert QuantizedArtifact.load(json_path).num_layers == artifact.num_layers
        assert artifact_paths("x.json") == artifact_paths("x.npz")

    def test_paths_keep_dotted_names(self, tmp_path):
        # only the .npz/.json suffixes are stripped; "model.v2" != "model.v3"
        npz_path, json_path = artifact_paths(tmp_path / "model.v2")
        assert npz_path.name == "model.v2.npz"
        assert json_path.name == "model.v2.json"
        assert artifact_paths(tmp_path / "model.v2") \
            != artifact_paths(tmp_path / "model.v3")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            QuantizedArtifact.load(tmp_path / "nope.npz")

    def test_load_rejects_foreign_json(self, tmp_path):
        (tmp_path / "other.json").write_text(json.dumps({"rows": []}))
        with pytest.raises(ValueError):
            QuantizedArtifact.load(tmp_path / "other.json")

    @pytest.mark.parametrize("version", [None, 2, 999],
                             ids=["missing", "older", "newer"])
    def test_load_accepts_exactly_one_format_version(self, served_models,
                                                     tmp_path, version):
        """No artifact predates this repo's v3 writer, so the reader has no
        downgrade path: anything but the current version is rejected, and
        the message names what was found."""
        artifact = QuantizedArtifact.from_model(served_models["gcn"])
        _, json_path = artifact.save(tmp_path / "artifact")
        payload = json.loads(json_path.read_text())
        if version is None:
            del payload["format_version"]
        else:
            payload["format_version"] = version  # reprolint: disable=RL04
        json_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"format_version {version!r}"):
            QuantizedArtifact.load(tmp_path / "artifact")
