"""Feature-data quantization for cheaper snapshot transfer.

The paper ships feature data as full-precision text (~18 bytes/value),
which dominates partial-inference snapshots.  An obvious extension —
standard in the collaborative-intelligence literature that followed
Neurosurgeon — is to quantize the feature tensor before transmission.
This module implements linear (affine) quantization to arbitrary bit
widths, so the ablation harness can measure the *real* accuracy impact:
quantize the feature at the offload point, dequantize at the server, run
the rear network, compare labels.

It is a study, not a codec: no executed offload quantizes anything, and
the partition optimizer prices the decimal text capture renders.
:attr:`QuantizedTensor.size_bytes` is what a bit-packed transfer would
carry (``bits`` per value, byte-padded, plus a header) — the size column
of ``repro ablation quantization``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: per-tensor header: shape, scale, zero point, bit width
QUANT_HEADER_BYTES = 64


@dataclass(frozen=True)
class QuantizedTensor:
    """A linearly quantized tensor and its reconstruction parameters."""

    codes: np.ndarray  # unsigned integer codes
    scale: float
    zero_point: float
    bits: int
    shape: Tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        """Packed transfer size: ``bits`` per value, byte-padded, plus a
        header."""
        total_bits = int(self.codes.size) * self.bits
        return (total_bits + 7) // 8 + QUANT_HEADER_BYTES

    def dequantize(self) -> np.ndarray:
        """Reconstruct the float tensor (lossy)."""
        return (
            self.codes.astype(np.float32) * np.float32(self.scale)
            + np.float32(self.zero_point)
        ).reshape(self.shape)


def quantize_linear(array: np.ndarray, bits: int = 8) -> QuantizedTensor:
    """Affine-quantize a float tensor to ``bits``-bit unsigned codes."""
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    flat = np.asarray(array, dtype=np.float32).ravel()
    lo = float(flat.min()) if flat.size else 0.0
    hi = float(flat.max()) if flat.size else 0.0
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("cannot quantize a tensor holding nan or inf")
    levels = (1 << bits) - 1
    scale = (hi - lo) / levels
    if np.float32(scale) == 0.0:
        # A constant tensor, or a range so narrow that its step underflows
        # float32 (the arithmetic below would divide by zero).
        scale = 1.0
        codes = np.zeros(flat.shape, dtype=np.uint16)
    else:
        codes = np.clip(np.round((flat - lo) / scale), 0, levels).astype(np.uint16)
    return QuantizedTensor(
        codes=codes,
        scale=scale,
        zero_point=lo,
        bits=bits,
        shape=tuple(np.asarray(array).shape),
    )


def quantization_error(array: np.ndarray, bits: int = 8) -> float:
    """RMS reconstruction error relative to the tensor's value range."""
    quantized = quantize_linear(array, bits)
    restored = quantized.dequantize()
    span = float(np.ptp(array)) or 1.0
    return float(np.sqrt(np.mean((restored - np.asarray(array)) ** 2))) / span


@dataclass
class QuantizationImpact:
    """Measured effect of quantizing the feature at an offload point."""

    model_name: str
    point_label: str
    bits: int
    agreement: float  # fraction of inputs whose top-1 label is unchanged
    text_bytes: int  # baseline: full-precision text serialization
    quantized_bytes: int

    @property
    def size_reduction(self) -> float:
        if self.text_bytes == 0:
            return 0.0
        return 1.0 - self.quantized_bytes / self.text_bytes


def measure_quantization_impact(
    model,
    point_label: str,
    bits: int,
    inputs,
) -> QuantizationImpact:
    """Run front → quantize → dequantize → rear on real inputs.

    ``inputs`` is an iterable of input tensors; agreement compares the
    rear network's argmax on the quantized feature against the unsplit
    model's argmax.
    """
    from repro.nn.tensor import text_serialized_bytes

    point = model.network.point_by_label(point_label)
    front, rear = model.split(point.index)
    agree = 0
    total = 0
    quantized_bytes = 0
    text_bytes = 0
    for image in inputs:
        reference = int(np.argmax(model.inference(image)))
        feature = front.inference(image)
        quantized = quantize_linear(feature, bits)
        approx_label = int(np.argmax(rear.inference(quantized.dequantize())))
        agree += int(approx_label == reference)
        total += 1
        quantized_bytes = quantized.size_bytes
        text_bytes = text_serialized_bytes(feature.shape)
    return QuantizationImpact(
        model_name=model.name,
        point_label=point_label,
        bits=bits,
        agreement=agree / total if total else 0.0,
        text_bytes=text_bytes,
        quantized_bytes=quantized_bytes,
    )
