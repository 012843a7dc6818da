"""Fully connected (inner product) layer."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.nn.layers.base import Layer, LayerShapeError, Shape


class FCLayer(Layer):
    """Fully connected layer over the flattened input tensor.

    Accepts any input shape and flattens it, like Caffe's InnerProduct; the
    output shape is ``(out_features,)``.  fc layers dominate the *parameter*
    budget of the benchmark models (AgeNet/GenderNet's 44 MB is mostly fc6),
    which is what makes pre-sending worthwhile.
    """

    kind = "fc"

    def __init__(self, name: str, out_features: int):
        super().__init__(name)
        if out_features <= 0:
            raise LayerShapeError(f"out_features must be positive, got {out_features}")
        self.out_features = out_features

    def infer_shape(self, input_shape: Shape) -> Shape:
        if not input_shape:
            raise LayerShapeError("fc layer needs a non-empty input shape")
        return (self.out_features,)

    @property
    def in_features(self) -> int:
        self._require_built()
        count = 1
        for dim in self.input_shape:
            count *= dim
        return count

    def param_shapes(self) -> Dict[str, Shape]:
        return {
            "weight": (self.out_features, self.in_features),
            "bias": (self.out_features,),
        }

    def _init_scale(self) -> float:
        return float(np.sqrt(1.0 / self.in_features))

    def forward(self, x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Forward pass; ``out`` (optional, ``(out_features,)`` float32) is a
        reusable output buffer — same values, no allocation."""
        self.check_input(x)
        flat = x.reshape(-1)
        if out is not None:
            np.matmul(self.params["weight"], flat, out=out)
            out += self.params["bias"]
            return out
        result = np.matmul(self.params["weight"], flat) + self.params["bias"]
        return result.astype(np.float32, copy=False)

    def count_flops(self) -> float:
        self._require_built()
        return 2.0 * self.in_features * self.out_features

    def config(self) -> dict:
        return {"out_features": self.out_features}
