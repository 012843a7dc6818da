"""Local response normalization (across channels), Caffe/AlexNet style."""

from __future__ import annotations

import numpy as np

from repro.nn import tensor
from repro.nn.layers.base import Layer, LayerShapeError, Shape


class LRNLayer(Layer):
    """Across-channel LRN: ``y = x / (k + alpha/n * sum(x^2))^beta``.

    Both GoogLeNet and the Levi–Hassner age/gender nets use LRN after their
    early pooling stages, so it appears between candidate offload points.
    """

    kind = "lrn"

    def __init__(
        self,
        name: str,
        local_size: int = 5,
        alpha: float = 1e-4,
        beta: float = 0.75,
        k: float = 1.0,
    ):
        super().__init__(name)
        if local_size <= 0 or local_size % 2 == 0:
            raise LayerShapeError(f"local_size must be odd positive, got {local_size}")
        self.local_size = local_size
        self.alpha = alpha
        self.beta = beta
        self.k = k

    def infer_shape(self, input_shape: Shape) -> Shape:
        if len(input_shape) != 3:
            raise LayerShapeError(f"lrn needs (C,H,W) input, got {input_shape}")
        return tuple(input_shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.check_input(x)
        return tensor.lrn(self, x)

    def count_flops(self) -> float:
        # square, windowed sum, scale, divide — roughly 4 ops/element plus
        # the window accumulation.
        return float((4 + self.local_size) * self.output_elements)

    def config(self) -> dict:
        return {
            "local_size": self.local_size,
            "alpha": self.alpha,
            "beta": self.beta,
            "k": self.k,
        }
