"""Tests for BatchNorm/Scale layers and the batch-normalized resnet."""

import numpy as np
import pytest

from repro.nn.layers import BatchNormLayer, ScaleLayer
from repro.nn.layers.base import LayerShapeError
from repro.nn.prototxt import network_from_prototxt, network_to_prototxt
from repro.nn.zoo.resnetlike import resnet_mini, resnet_mini_bn
from repro.sim import SeededRng


class TestBatchNorm:
    def test_whitens_with_stored_statistics(self):
        layer = BatchNormLayer("bn")
        layer.build((2, 3, 3), SeededRng(0, "bn"))
        x = SeededRng(1, "x").normal_array((2, 3, 3), 5.0)
        out = layer.forward(x)
        mean = layer.params["mean"][:, None, None]
        variance = layer.params["variance"][:, None, None]
        expected = (x - mean) / np.sqrt(variance + layer.eps)
        assert np.allclose(out, expected, atol=1e-5)

    def test_stats_ship_as_parameters(self):
        layer = BatchNormLayer("bn")
        layer.build((8, 4, 4), SeededRng(2, "bn"))
        assert layer.param_count == 16  # mean + variance per channel

    def test_bad_eps_rejected(self):
        with pytest.raises(LayerShapeError):
            BatchNormLayer("bn", eps=0.0)

    def test_needs_chw_input(self):
        layer = BatchNormLayer("bn")
        with pytest.raises(LayerShapeError):
            layer.build((10,), SeededRng(3, "bn"))


class TestScale:
    def test_affine(self):
        layer = ScaleLayer("s")
        layer.build((2, 2, 2), SeededRng(4, "s"))
        x = SeededRng(5, "x").normal_array((2, 2, 2))
        out = layer.forward(x)
        expected = (
            x * layer.params["gamma"][:, None, None]
            + layer.params["beta"][:, None, None]
        )
        assert np.allclose(out, expected, atol=1e-6)

    def test_without_bias(self):
        layer = ScaleLayer("s", bias=False)
        layer.build((2, 2, 2), SeededRng(6, "s"))
        assert "beta" not in layer.params
        x = np.ones((2, 2, 2), dtype=np.float32)
        assert np.allclose(
            layer.forward(x), layer.params["gamma"][:, None, None] * x
        )


class TestBnResnet:
    @pytest.fixture(scope="class")
    def model(self):
        return resnet_mini_bn()

    def test_forward(self, model):
        x = SeededRng(7, "x").uniform_array((3, 32, 32), 0, 255)
        probs = model.inference(x)
        assert probs.sum() == pytest.approx(1.0, rel=1e-4)

    def test_bn_adds_parameters(self, model):
        plain = resnet_mini()
        assert model.network.param_count > plain.network.param_count

    def test_split_consistent(self, model):
        x = SeededRng(8, "x").uniform_array((3, 32, 32), 0, 255)
        full = model.inference(x)
        halves = model.network.split(7)
        assert np.allclose(halves.forward(x), full, atol=1e-4)

    def test_prototxt_roundtrip_with_bn(self, model):
        text = network_to_prototxt(model.network)
        assert 'type: "BatchNorm"' in text
        assert 'type: "Scale"' in text
        rebuilt = network_from_prototxt(text)
        assert rebuilt.param_count == model.network.param_count
        inner_kinds = {
            cost.kind
            for cost in __import__(
                "repro.nn.cost", fromlist=["network_costs"]
            ).network_costs(rebuilt)
        }
        assert {"batchnorm", "scale", "eltwise"} <= inner_kinds

    def test_description_roundtrip(self, model):
        rebuilt = network_from_prototxt(network_to_prototxt(model.network))
        assert rebuilt.describe() == model.network.describe()

    def test_save_load_exact(self, tmp_path, model):
        from repro.nn.caffemodel import load_model_files, save_model_files

        loaded = load_model_files(*save_model_files(model, str(tmp_path)))
        x = SeededRng(10, "x").uniform_array((3, 32, 32), 0, 255)
        assert np.array_equal(loaded.inference(x), model.inference(x))
