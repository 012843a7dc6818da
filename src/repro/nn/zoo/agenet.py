"""AgeNet and GenderNet — Levi & Hassner (CVPR-W 2015).

The paper's other two benchmark apps use the age/gender CNN of Levi &
Hassner: a compact network of 3 conv blocks (with LRN) and 2 hidden fc
layers of 512 over 227x227 input.  AgeNet classifies 8 age brackets, GenderNet 2
genders; they share the backbone, so both model files weigh ~44 MiB — the
number that makes offloading *before* the pre-send ACK slower than local
execution in the paper's Fig. 6.
"""

from __future__ import annotations

from typing import List

from repro.nn.layers import (
    ConvLayer,
    DropoutLayer,
    FCLayer,
    InputLayer,
    LRNLayer,
    PoolLayer,
    ReLULayer,
    SoftmaxLayer,
)
from repro.nn.layers.base import Layer
from repro.nn.model import Model
from repro.nn.network import Network
from repro.sim import SeededRng


def _levi_hassner_layers(num_classes: int) -> List[Layer]:
    return [
        InputLayer((3, 227, 227)),
        ConvLayer("conv1", 96, kernel=7, stride=4),
        ReLULayer("relu1"),
        PoolLayer("pool1", kernel=3, stride=2),
        LRNLayer("norm1", local_size=5),
        ConvLayer("conv2", 256, kernel=5, pad=2),
        ReLULayer("relu2"),
        PoolLayer("pool2", kernel=3, stride=2),
        LRNLayer("norm2", local_size=5),
        ConvLayer("conv3", 384, kernel=3, pad=1),
        ReLULayer("relu3"),
        PoolLayer("pool3", kernel=3, stride=2),
        FCLayer("fc6", 512),
        ReLULayer("relu6"),
        DropoutLayer("drop6", rate=0.5),
        FCLayer("fc7", 512),
        ReLULayer("relu7"),
        DropoutLayer("drop7", rate=0.5),
        FCLayer("fc8", num_classes),
        SoftmaxLayer("prob"),
    ]


def agenet_network() -> Network:
    """The 8-class age network spine (unbuilt)."""
    return Network("agenet", _levi_hassner_layers(num_classes=8))


def gendernet_network() -> Network:
    """The 2-class gender network spine (unbuilt)."""
    return Network("gendernet", _levi_hassner_layers(num_classes=2))


def agenet(seed: int = 0) -> Model:
    """Build AgeNet with randomly initialized parameters."""
    network = agenet_network()
    network.build(SeededRng(seed, "zoo/agenet"))
    return Model("agenet", network)


def gendernet(seed: int = 0) -> Model:
    """Build GenderNet with randomly initialized parameters."""
    network = gendernet_network()
    network.build(SeededRng(seed, "zoo/gendernet"))
    return Model("gendernet", network)
