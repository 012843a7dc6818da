"""Layer implementations for the benchmark CNNs.

Every layer exposes the same protocol (:class:`~repro.nn.layers.base.Layer`):
shape propagation, an analytic FLOP count, parameter blobs, and a numpy
``forward``.  The set covers everything GoogLeNet, AgeNet and GenderNet use:
conv, max/avg pool, fully connected, ReLU, LRN, channel concat (inception),
dropout and softmax.
"""

from repro.nn.layers.base import Layer, LayerShapeError
from repro.nn.layers.io import InputLayer
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.pool import PoolLayer
from repro.nn.layers.dense import FCLayer
from repro.nn.layers.activation import DropoutLayer, ReLULayer, SoftmaxLayer
from repro.nn.layers.normalization import LRNLayer
from repro.nn.layers.composite import InceptionModule, ResidualBlock
from repro.nn.layers.exits import ExitHead

__all__ = [
    "ConvLayer",
    "DropoutLayer",
    "ExitHead",
    "FCLayer",
    "InceptionModule",
    "InputLayer",
    "LRNLayer",
    "Layer",
    "LayerShapeError",
    "PoolLayer",
    "ReLULayer",
    "ResidualBlock",
    "SoftmaxLayer",
]
