"""Tests for residual blocks, the resnet-mini model, and Eltwise prototxt."""

import numpy as np
import pytest

from repro.nn.cost import network_costs, total_flops
from repro.nn.layers import ConvLayer, InputLayer, ReLULayer, ResidualBlock
from repro.nn.layers.base import LayerShapeError
from repro.nn.network import Network
from repro.nn.prototxt import (
    PrototxtError,
    network_from_prototxt,
    network_to_prototxt,
)
from repro.nn.zoo import build_model
from repro.nn.zoo.resnetlike import resnet_mini
from repro.sim import SeededRng


@pytest.fixture(scope="module")
def model():
    return resnet_mini()


@pytest.fixture
def image():
    return SeededRng(0, "rimg").uniform_array((3, 32, 32), 0, 255)


class TestResidualBlock:
    def _identity_block(self):
        return ResidualBlock(
            "res",
            body=[
                ConvLayer("c1", 4, kernel=3, pad=1),
                ReLULayer("r1"),
                ConvLayer("c2", 4, kernel=3, pad=1),
            ],
        )

    def test_identity_shortcut_adds_input(self):
        block = self._identity_block()
        block.build((4, 8, 8), SeededRng(1, "b"))
        x = SeededRng(2, "x").normal_array((4, 8, 8))
        out = block.forward(x)
        body = x
        for layer in block.body:
            body = layer.forward(body)
        assert np.allclose(out, body + x, atol=1e-5)

    def test_projection_shortcut(self):
        block = ResidualBlock(
            "down",
            body=[ConvLayer("c1", 8, kernel=3, stride=2, pad=1)],
            shortcut=[ConvLayer("proj", 8, kernel=1, stride=2)],
        )
        block.build((4, 8, 8), SeededRng(3, "b"))
        assert block.out_shape == (8, 4, 4)

    def test_shape_mismatch_rejected(self):
        block = ResidualBlock(
            "bad",
            body=[ConvLayer("c1", 8, kernel=3, stride=2, pad=1)],  # halves H,W
        )
        with pytest.raises(LayerShapeError):
            block.build((4, 8, 8), SeededRng(4, "b"))

    def test_empty_body_rejected(self):
        with pytest.raises(LayerShapeError):
            ResidualBlock("bad", body=[])

    def test_flops_include_add(self):
        block = self._identity_block()
        block.build((4, 8, 8), SeededRng(5, "b"))
        inner = sum(layer.count_flops() for layer in block.inner_layers())
        assert block.count_flops() == inner + 4 * 8 * 8

    def test_param_arrays_qualified(self):
        block = ResidualBlock(
            "res",
            body=[ConvLayer("c1", 4, kernel=1)],
            shortcut=[ConvLayer("p", 4, kernel=1)],
        )
        block.build((4, 4, 4), SeededRng(6, "b"))
        names = set(block.param_arrays())
        assert "body/c1/weight" in names
        assert "shortcut/p/weight" in names


class TestResnetMini:
    def test_registered_in_zoo(self):
        assert build_model("resnet-mini").name == "resnet-mini"

    def test_shapes_and_params(self, model):
        assert model.network.output_shape == (10,)
        assert 150_000 < model.network.param_count < 300_000
        assert total_flops(model.network) > 10e6

    def test_forward_distribution(self, model, image):
        probs = model.inference(image)
        assert probs.sum() == pytest.approx(1.0, rel=1e-4)

    def test_split_across_every_point(self, model, image):
        full = model.inference(image)
        for index in range(len(model.network.layers) - 1):
            halves = model.network.split(index)
            assert np.allclose(halves.forward(image), full, atol=1e-4)

    def test_costs_expand_residual_blocks(self, model):
        costs = network_costs(model.network)
        kinds = {cost.kind for cost in costs}
        assert "eltwise" in kinds
        assert any("res3a/" in cost.name for cost in costs)

    def test_description_roundtrip(self, model, image):
        rebuilt = network_from_prototxt(network_to_prototxt(model.network))
        assert rebuilt.describe() == model.network.describe()

    def test_save_load_exact(self, tmp_path, model, image):
        from repro.nn.caffemodel import load_model_files, save_model_files

        loaded = load_model_files(*save_model_files(model, str(tmp_path)))
        assert np.array_equal(loaded.inference(image), model.inference(image))


class TestEltwisePrototxt:
    def test_roundtrip(self, model):
        text = network_to_prototxt(model.network)
        assert 'type: "Eltwise"' in text
        assert "operation: SUM" in text
        rebuilt = network_from_prototxt(text)
        assert [l.kind for l in rebuilt.layers] == [
            l.kind for l in model.network.layers
        ]
        assert rebuilt.param_count == model.network.param_count

    def test_identity_shortcut_parsed(self, model):
        text = network_to_prototxt(model.network)
        rebuilt = network_from_prototxt(text)
        res2a = next(l for l in rebuilt.layers if l.name == "res2a")
        assert res2a.shortcut == []
        res3a = next(l for l in rebuilt.layers if l.name == "res3a")
        assert len(res3a.shortcut) == 1

    def test_handwritten_eltwise(self):
        text = '''
        input: "data"
        input_dim: 1 input_dim: 2 input_dim: 4 input_dim: 4
        layer {
          name: "body" type: "Convolution" bottom: "data" top: "body"
          convolution_param { num_output: 2 kernel_size: 3 pad: 1 }
        }
        layer {
          name: "join" type: "Eltwise" bottom: "body" bottom: "data" top: "join"
          eltwise_param { operation: SUM }
        }
        '''
        network = network_from_prototxt(text)
        assert network.layers[1].kind == "residual"
        assert network.output_shape == (2, 4, 4)

    def test_three_way_eltwise_rejected(self):
        text = '''
        input: "data"
        input_dim: 1 input_dim: 2 input_dim: 4 input_dim: 4
        layer {
          name: "a" type: "Convolution" bottom: "data" top: "a"
          convolution_param { num_output: 2 kernel_size: 1 }
        }
        layer {
          name: "b" type: "Convolution" bottom: "data" top: "b"
          convolution_param { num_output: 2 kernel_size: 1 }
        }
        layer {
          name: "join" type: "Eltwise"
          bottom: "a" bottom: "b" bottom: "data" top: "join"
        }
        '''
        with pytest.raises(PrototxtError):
            network_from_prototxt(text)

    def test_weights_blob_roundtrip(self, model, image):
        from repro.nn.caffemodel import apply_weights, decode_weights, encode_weights

        blobs = decode_weights(encode_weights(model.network))
        fresh = resnet_mini(seed=11)
        apply_weights(fresh.network, blobs)
        assert np.array_equal(fresh.inference(image), model.inference(image))


class TestResidualOffloading:
    def test_resnet_app_offloads_correctly(self, model, image):
        """The whole offloading pipeline over a residual model."""
        from repro.core.client import ClientAgent
        from repro.core.server import EdgeServer
        from repro.core.snapshot import CaptureOptions
        from repro.devices import Device, edge_server_x86, odroid_xu4_client
        from repro.netsim import Channel, NetemProfile
        from repro.sim import Simulator
        from repro.web.app import make_inference_app
        from repro.web.values import TypedArray

        sim = Simulator()
        channel = Channel(sim, "client", "edge", NetemProfile.wifi_30mbps())
        server = EdgeServer(sim, Device(sim, edge_server_x86()), name="edge")
        server.serve(channel.end_b)
        client = ClientAgent(
            sim,
            Device(sim, odroid_xu4_client()),
            channel.end_a,
            capture_options=CaptureOptions(include_canvas_pixels=True),
        )
        client.start_app(make_inference_app(model), presend=True)
        client.runtime.globals["pending_pixels"] = TypedArray(image)
        client.runtime.dispatch("click", "load_btn")
        client.mark_offload_point("click", "infer_btn")
        sim.run()
        client.runtime.dispatch("click", "infer_btn")
        event = client.take_intercepted()
        process = sim.spawn(
            client.offload(event, server_costs=network_costs(model.network))
        )
        sim.run()
        assert process.ok
        expected = int(np.argmax(model.inference(image)))
        assert client.runtime.globals["result_label"] == expected
