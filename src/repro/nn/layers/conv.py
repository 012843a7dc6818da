"""Convolutional layer (im2col + matmul), Caffe semantics.

Forward passes reuse a per-layer cache (built lazily, shared safely
because the simulator is single-threaded per process): the pre-reshaped,
contiguous per-group matmul operands (weight matrix plus bias column) —
rebuilding them every ``forward`` was pure overhead, and for grouped
convolution it meant a slice + reshape + copy per group per call.  The
im2col columns go through the process-wide
:func:`repro.nn.tensor.scratch`, not a buffer per layer.

The operand cache invalidates when ``params["weight"]`` or
``params["bias"]`` is *replaced* (how every loader in this repo updates
parameters).  To make sure in-place writes can never serve stale
results, both cached source arrays are frozen (``writeable=False``)
— mutate-in-place code must either assign a fresh array or call
:meth:`invalidate_param_cache` first.  Compiled plans freeze every
captured parameter the same way, and recompile once it is unfrozen.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.layers.base import Layer, LayerShapeError, Shape
from repro.nn.tensor import conv_output_hw, im2col, scratch
from repro.sim import SeededRng


class ConvLayer(Layer):
    """2-D convolution with ``num_filters`` square filters.

    The paper's background section calls out the key property reproduced
    here: "conv layers in modern CNNs have many filters, so the output of a
    conv layer is prone to be larger than the input" — which is why feature
    size (and hence snapshot transmission cost) surges at conv offload
    points (Fig. 8).
    """

    kind = "conv"

    def __init__(
        self,
        name: str,
        num_filters: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
        groups: int = 1,
    ):
        super().__init__(name)
        if num_filters <= 0 or kernel <= 0 or stride <= 0 or pad < 0:
            raise LayerShapeError(
                f"bad conv config: filters={num_filters} kernel={kernel} "
                f"stride={stride} pad={pad}"
            )
        if groups <= 0 or num_filters % groups != 0:
            raise LayerShapeError(
                f"groups={groups} must divide num_filters={num_filters}"
            )
        self.num_filters = num_filters
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.groups = groups
        self._weight_ref: Optional["weakref.ref"] = None
        self._bias_ref: Optional["weakref.ref"] = None
        self._operands: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None

    def infer_shape(self, input_shape: Shape) -> Shape:
        if len(input_shape) != 3:
            raise LayerShapeError(f"conv needs (C,H,W) input, got {input_shape}")
        channels, height, width = input_shape
        if channels % self.groups != 0:
            raise LayerShapeError(
                f"conv {self.name!r}: groups={self.groups} must divide input "
                f"channels={channels}"
            )
        try:
            out_h, out_w = conv_output_hw(
                height, width, self.kernel, self.stride, self.pad
            )
        except ValueError as exc:
            raise LayerShapeError(f"conv {self.name!r}: {exc}") from exc
        return (self.num_filters, out_h, out_w)

    @property
    def _channels_per_group(self) -> int:
        return self.input_shape[0] // self.groups

    def invalidate_param_cache(self) -> None:
        """Drop the cached matmul operands and unfreeze the parameters."""
        super().invalidate_param_cache()
        self._weight_ref = None
        self._bias_ref = None
        self._operands = None

    def _group_operands(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-group ``(weight matrix, bias column)`` matmul operands.

        The matrix is the contiguous ``(filters_per_group, C/g * k * k)``
        reshape of the group's filters; the bias is the group's slice as a
        contiguous ``(filters_per_group, 1)`` column, pre-shaped for the
        broadcast add (previously re-sliced and re-shaped every forward on
        the grouped path).  Cached until ``params["weight"]`` *or*
        ``params["bias"]`` is replaced; both source arrays are frozen while
        cached so in-place writes fail loudly instead of silently bypassing
        the cache.
        """
        weight = self.params["weight"]
        bias = self.params["bias"]
        stale = (
            self._operands is None
            or self._weight_ref is None
            or self._weight_ref() is not weight
            or self._bias_ref is None
            or self._bias_ref() is not bias
        )
        if stale:
            self.invalidate_param_cache()
            per_out = self.num_filters // self.groups
            self._operands = [
                (
                    np.ascontiguousarray(
                        weight[group * per_out : (group + 1) * per_out].reshape(
                            per_out, -1
                        ),
                        dtype=np.float32,
                    ),
                    np.ascontiguousarray(
                        bias[group * per_out : (group + 1) * per_out][:, None],
                        dtype=np.float32,
                    ),
                )
                for group in range(self.groups)
            ]
            self._weight_ref = weakref.ref(weight)
            self._bias_ref = weakref.ref(bias)
            weight.flags.writeable = False
            bias.flags.writeable = False
        return self._operands

    def cols_scratch(self, *lead: int) -> np.ndarray:
        """The shared im2col scratch, shaped for a ``(*lead, H, W)`` input."""
        return scratch(
            "cols", lead + (self.kernel, self.kernel) + self.out_shape[1:]
        )

    def init_params(self, rng: SeededRng) -> None:
        self.invalidate_param_cache()
        fan_in = self._channels_per_group * self.kernel * self.kernel
        scale = float(np.sqrt(2.0 / fan_in))  # He init: sensible magnitudes
        self.params = {
            "weight": rng.normal_array(
                (
                    self.num_filters,
                    self._channels_per_group,
                    self.kernel,
                    self.kernel,
                ),
                scale,
            ),
            "bias": np.zeros(self.num_filters, dtype=np.float32),
        }

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.check_input(x)
        operands = self._group_operands()
        if self.groups == 1:
            matrix, bias = operands[0]
            buffer = self.cols_scratch(x.shape[0])
            cols = im2col(x, self.kernel, self.stride, self.pad, out=buffer)
            out = np.matmul(matrix, cols) + bias
            return out.reshape(self.out_shape).astype(np.float32, copy=False)
        # Grouped convolution: each filter group only sees
        # its slice of the input channels.
        per_in = self._channels_per_group
        buffer = self.cols_scratch(per_in)
        outputs = []
        for group, (matrix, bias) in enumerate(operands):
            x_slice = x[group * per_in : (group + 1) * per_in]
            cols = im2col(x_slice, self.kernel, self.stride, self.pad, out=buffer)
            outputs.append(np.matmul(matrix, cols) + bias)
        out = np.concatenate(outputs, axis=0)
        return out.reshape(self.out_shape).astype(np.float32, copy=False)

    def count_flops(self) -> float:
        self._require_built()
        _, out_h, out_w = self.out_shape
        macs = (
            self.num_filters
            * self._channels_per_group
            * self.kernel**2
            * out_h
            * out_w
        )
        return 2.0 * macs

    def config(self) -> dict:
        return {
            "num_filters": self.num_filters,
            "kernel": self.kernel,
            "stride": self.stride,
            "pad": self.pad,
            "groups": self.groups,
        }
