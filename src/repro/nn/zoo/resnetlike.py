"""A CIFAR-style residual network ("resnet-mini").

Not one of the paper's benchmark apps — it post-dates the architectures
CaffeJS shipped — but the natural compatibility target for the framework:
split-DNN offloading must handle elementwise-add joins, identity and
projection shortcuts, and Eltwise prototxt graphs.  Three stages of two
residual blocks over 32x32 input, ~0.27 M parameters.
"""

from __future__ import annotations

from typing import List

from repro.nn.layers import (
    ConvLayer,
    FCLayer,
    InputLayer,
    PoolLayer,
    ReLULayer,
    ResidualBlock,
    SoftmaxLayer,
)
from repro.nn.layers.base import Layer
from repro.nn.model import Model
from repro.nn.network import Network
from repro.sim import SeededRng


def _block(name: str, channels: int, stride: int = 1) -> ResidualBlock:
    body: List[Layer] = [
        ConvLayer(f"{name}_conv1", channels, kernel=3, stride=stride, pad=1),
        ReLULayer(f"{name}_relu1"),
        ConvLayer(f"{name}_conv2", channels, kernel=3, pad=1),
    ]
    shortcut: List[Layer] = []
    if stride != 1:
        # Downsampling block: a 1x1 projection shortcut matches shapes.
        shortcut = [ConvLayer(f"{name}_proj", channels, kernel=1, stride=stride)]
    return ResidualBlock(name, body=body, shortcut=shortcut)


def resnet_mini_network(num_classes: int = 10) -> Network:
    """The (unbuilt) residual spine."""
    layers: List[Layer] = [
        InputLayer((3, 32, 32)),
        ConvLayer("conv1", 16, kernel=3, pad=1),
        ReLULayer("relu1"),
        _block("res2a", 16),
        ReLULayer("res2a_relu"),
        _block("res2b", 16),
        ReLULayer("res2b_relu"),
        _block("res3a", 32, stride=2),
        ReLULayer("res3a_relu"),
        _block("res3b", 32),
        ReLULayer("res3b_relu"),
        _block("res4a", 64, stride=2),
        ReLULayer("res4a_relu"),
        _block("res4b", 64),
        ReLULayer("res4b_relu"),
        PoolLayer("global_pool", kernel=8, stride=1, mode="avg"),
        FCLayer("fc", num_classes),
        SoftmaxLayer("prob"),
    ]
    return Network("resnet-mini", layers)


def resnet_mini(seed: int = 0, num_classes: int = 10) -> Model:
    """Build the residual model with randomly initialized parameters."""
    network = resnet_mini_network(num_classes)
    network.build(SeededRng(seed, "zoo/resnet-mini"))
    return Model("resnet-mini", network)

