"""Tests for network building, splitting and offload-point enumeration."""

import numpy as np
import pytest

from repro.nn.cost import (
    costs_for_range,
    network_costs,
    spine_costs,
    total_flops,
)
from repro.nn.layers import ConvLayer, FCLayer, InputLayer, PoolLayer, ReLULayer
from repro.nn.network import Network
from repro.nn.zoo import smallnet, tinynet
from repro.nn.zoo.smallnet import smallnet_network
from repro.sim import SeededRng


@pytest.fixture
def net():
    return smallnet().network


@pytest.fixture
def image():
    return SeededRng(5, "img").uniform_array((3, 32, 32), 0, 255)


class TestBuild:
    def test_build_binds_shapes(self, net):
        assert net.built
        assert net.output_shape == (10,)

    def test_unbuilt_network_refuses_forward(self):
        network = smallnet_network()
        with pytest.raises(RuntimeError):
            network.forward(np.zeros((3, 32, 32), dtype=np.float32))

    def test_missing_input_layer_needs_explicit_shape(self):
        network = Network("headless", [ConvLayer("c", 2, kernel=3)])
        with pytest.raises(ValueError):
            network.build()
        network.build(input_shape=(3, 8, 8))
        assert network.output_shape == (2, 6, 6)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            Network("empty", [])

    def test_deterministic_builds_same_seed(self, image):
        a = smallnet(seed=3)
        b = smallnet(seed=3)
        assert np.array_equal(a.inference(image), b.inference(image))

    def test_different_seeds_differ(self, image):
        a = smallnet(seed=1)
        b = smallnet(seed=2)
        assert not np.array_equal(a.inference(image), b.inference(image))


class TestForward:
    def test_forward_range_composes(self, net, image):
        halves = net.split(len(net.layers) // 2)
        rest = halves.rear.forward(halves.front.forward(image))
        assert np.allclose(rest, net.forward(image))

    def test_forward_with_activations_matches(self, net, image):
        activations = net.forward_with_activations(image)
        assert len(activations) == len(net.layers)
        assert np.array_equal(activations[-1], net.forward(image))

    def test_invalid_range_rejected(self, net, image):
        with pytest.raises(IndexError):
            net.forward_reference(image, 3, 2)
        with pytest.raises(IndexError):
            net.forward_reference(image, 0, len(net.layers))


class TestSplit:
    def test_split_preserves_inference(self, net, image):
        full = net.forward(image)
        for index in range(len(net.layers) - 1):
            halves = net.split(index)
            assert np.allclose(halves.forward(image), full, atol=1e-5), (
                f"split at {index} changed the result"
            )

    def test_split_shares_parameters(self, net):
        halves = net.split(1)
        assert halves.front.layers[1] is net.layers[1]

    def test_split_index_bounds(self, net):
        with pytest.raises(IndexError):
            net.split(len(net.layers) - 1)  # rear part would be empty
        with pytest.raises(IndexError):
            net.split(-1)

    def test_feature_shape_reported(self, net):
        point = net.point_by_label("1st_pool")
        halves = net.split(point.index)
        assert halves.feature_shape == net.layers[point.index].out_shape

    def test_rear_network_input_shape(self, net):
        halves = net.split(3)
        assert halves.rear.input_shape == net.layers[3].out_shape


class TestOffloadPoints:
    def test_labels_follow_fig8_convention(self, net):
        labels = [point.label for point in net.offload_points()]
        assert labels[0] == "input"
        assert "1st_conv" in labels
        assert "1st_pool" in labels
        assert "2nd_conv" in labels
        assert "2nd_pool" in labels

    def test_last_layer_not_an_offload_point(self, net):
        points = net.offload_points()
        assert points[-1].index == len(net.layers) - 2

    def test_point_by_label_roundtrip(self, net):
        point = net.point_by_label("1st_conv")
        assert net.layers[point.index].kind == "conv"

    def test_unknown_label_raises(self, net):
        with pytest.raises(KeyError):
            net.point_by_label("42nd_conv")

    def test_non_conv_pool_points_use_layer_names(self, net):
        labels = {point.label for point in net.offload_points()}
        assert "norm1" in labels  # the LRN layer is addressable by name


class TestCosts:
    def test_total_flops_positive_and_additive(self, net):
        costs = network_costs(net)
        assert total_flops(net) == pytest.approx(sum(c.flops for c in costs))
        assert total_flops(net) > 0

    def test_spine_costs_align_with_layers(self, net):
        points = spine_costs(net)
        assert len(points) == len(net.layers)
        assert [p.name for p in points] == [layer.name for layer in net.layers]

    def test_costs_for_range_partition(self, net):
        mid = 4
        front = costs_for_range(net, 0, mid)
        rear = costs_for_range(net, mid + 1, len(net.layers) - 1)
        assert sum(c.flops for c in front) + sum(c.flops for c in rear) == (
            pytest.approx(total_flops(net))
        )

    def test_feature_bytes_shrink_after_pool(self, net):
        points = spine_costs(net)
        by_name = {p.name: p for p in points}
        assert by_name["pool1"].feature_text_bytes < by_name["conv1"].feature_text_bytes

    def test_conv_grows_feature_bytes(self, net):
        points = spine_costs(net)
        by_name = {p.name: p for p in points}
        # conv1 has 8 filters over 3 input channels at the same resolution.
        assert by_name["conv1"].feature_text_bytes > by_name["input"].feature_text_bytes

    def test_unbuilt_network_costing_rejected(self):
        with pytest.raises(RuntimeError):
            network_costs(smallnet_network())

    def test_tinynet_costs(self):
        net = tinynet().network
        kinds = {c.kind for c in network_costs(net)}
        assert kinds == {"input", "conv", "relu", "pool", "fc", "softmax"}
