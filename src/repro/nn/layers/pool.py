"""Max / average pooling, Caffe semantics (ceil output formula)."""

from __future__ import annotations

import numpy as np

from repro.nn import tensor
from repro.nn.layers.base import Layer, LayerShapeError, Shape


class PoolLayer(Layer):
    """Spatial pooling.

    The paper leans on the size asymmetry reproduced here: "the output of a
    pool layer becomes smaller than its input" because only the window
    maximum survives — which makes pool layers the cheap offload points in
    Fig. 8 (small feature data, little computation).
    """

    kind = "pool"

    def __init__(
        self,
        name: str,
        kernel: int,
        stride: int,
        pad: int = 0,
        mode: str = "max",
    ):
        super().__init__(name)
        if kernel <= 0 or stride <= 0 or pad < 0:
            raise LayerShapeError(
                f"bad pool config: kernel={kernel} stride={stride} pad={pad}"
            )
        if mode not in ("max", "avg"):
            raise LayerShapeError(f"pool mode must be 'max' or 'avg', got {mode!r}")
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.mode = mode

    def infer_shape(self, input_shape: Shape) -> Shape:
        if len(input_shape) != 3:
            raise LayerShapeError(f"pool needs (C,H,W) input, got {input_shape}")
        channels, height, width = input_shape
        try:
            out_h, out_w = tensor.pool_output_hw(
                height, width, self.kernel, self.stride, self.pad
            )
        except ValueError as exc:
            raise LayerShapeError(f"pool {self.name!r}: {exc}") from exc
        return (channels, out_h, out_w)

    def forward(self, x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Forward pass; ``out`` (optional) is a reusable output buffer.

        With ``out`` the max path runs as strided in-place maxima —
        bitwise-identical values, no patch stack — following the ``out=``
        convention of :func:`repro.nn.tensor.im2col`.
        """
        self.check_input(x)
        return tensor.pool(self, x, out)

    def count_flops(self) -> float:
        # One comparison (or add) per window element per output cell.
        self._require_built()
        return float(self.kernel**2 * self.output_elements)

    def config(self) -> dict:
        return {
            "kernel": self.kernel,
            "stride": self.stride,
            "pad": self.pad,
            "mode": self.mode,
        }
