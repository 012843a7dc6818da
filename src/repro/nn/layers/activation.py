"""Elementwise layers: ReLU, dropout (inference mode), softmax."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer, LayerShapeError, Shape


class _SameShapeLayer(Layer):
    """Base for layers whose output shape equals their input shape."""

    def infer_shape(self, input_shape: Shape) -> Shape:
        if not input_shape:
            raise LayerShapeError(f"{self.kind} layer needs a non-empty input shape")
        return tuple(input_shape)


class ReLULayer(_SameShapeLayer):
    """Rectified linear activation."""

    kind = "relu"

    def forward(self, x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Forward pass; ``out`` (optional) is a reusable output buffer."""
        self.check_input(x)
        if out is not None:
            return np.maximum(x, 0.0, out=out.reshape(x.shape))
        return np.maximum(x, 0.0).astype(np.float32, copy=False)

    def count_flops(self) -> float:
        return float(self.output_elements)


class DropoutLayer(_SameShapeLayer):
    """Dropout; identity at inference time (this framework only infers).

    Kept in the architectures because the description files must match the
    originals layer-for-layer, and because it still costs a (tiny) dispatch
    overhead in the latency model.
    """

    kind = "dropout"

    def __init__(self, name: str, rate: float = 0.5):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise LayerShapeError(f"dropout rate must be in [0,1), got {rate}")
        self.rate = rate

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.check_input(x)
        return x

    def count_flops(self) -> float:
        return 0.0

    def config(self) -> dict:
        return {"rate": self.rate}


class SoftmaxLayer(_SameShapeLayer):
    """Numerically stable softmax over all elements (the class scores)."""

    kind = "softmax"

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.check_input(x)
        shifted = x - x.max()
        exps = np.exp(shifted)
        return (exps / exps.sum()).astype(np.float32, copy=False)

    def count_flops(self) -> float:
        # exp + subtract + divide + the two reductions, per element.
        return 5.0 * self.output_elements
