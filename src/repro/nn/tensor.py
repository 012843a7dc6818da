"""Tensor helpers: shapes, im2col, pooling windows, text sizing.

Conventions
-----------
* Feature tensors are ``float32`` numpy arrays shaped ``(C, H, W)``
  (channels first, single sample) — Caffe's layout for one image.
* Convolution output dims use Caffe's *floor* formula; pooling uses
  Caffe's *ceil* formula with edge clipping.  Getting this right matters:
  the benchmark architectures only land on the paper's reported model and
  feature sizes with Caffe's exact arithmetic.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Tuple

import numpy as np

Shape3 = Tuple[int, int, int]

#: Bytes per value when feature data is serialized as snapshot text.
#: A real JS snapshot stores typed-array contents as a decimal literal list;
#: at full float32 precision ("%.9e" plus separator) that is ~17-18 bytes per
#: value.  With 18 the GoogLeNet features measure 14.5 MB after 1st_conv and
#: 3.6 MB after 1st_pool, bracketing the paper's 14.7 / 2.9 MB.
TEXT_BYTES_PER_VALUE = 18


@functools.lru_cache(maxsize=4096)
def conv_output_hw(
    height: int, width: int, kernel: int, stride: int, pad: int
) -> Tuple[int, int]:
    """Caffe convolution output size (floor formula).

    Memoized: cost models and sweeps recompute the same handful of shapes
    thousands of times per campaign.  (Failures are not cached —
    ``lru_cache`` only stores successful returns.)
    """
    out_h = (height + 2 * pad - kernel) // stride + 1
    out_w = (width + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"conv kernel {kernel}x{kernel}/s{stride} p{pad} does not fit "
            f"{height}x{width} input"
        )
    return out_h, out_w


@functools.lru_cache(maxsize=4096)
def pool_output_hw(
    height: int, width: int, kernel: int, stride: int, pad: int = 0
) -> Tuple[int, int]:
    """Caffe pooling output size (ceil formula with edge clamp). Memoized
    like :func:`conv_output_hw`."""
    out_h = int(math.ceil((height + 2 * pad - kernel) / stride)) + 1
    out_w = int(math.ceil((width + 2 * pad - kernel) / stride)) + 1
    if pad > 0:
        # Caffe clips the last window so it starts strictly inside the
        # padded image.
        if (out_h - 1) * stride >= height + pad:
            out_h -= 1
        if (out_w - 1) * stride >= width + pad:
            out_w -= 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"pool kernel {kernel}x{kernel}/s{stride} p{pad} does not fit "
            f"{height}x{width} input"
        )
    return out_h, out_w


def pad_chw(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad height and width of a (C, H, W) tensor."""
    if pad == 0:
        return x
    channels, height, width = x.shape
    padded = np.zeros(
        (channels, height + 2 * pad, width + 2 * pad), dtype=x.dtype
    )
    padded[:, pad : pad + height, pad : pad + width] = x
    return padded


def im2col(
    x: np.ndarray,
    kernel: int,
    stride: int,
    pad: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unfold a (C, H, W) tensor into columns for matmul convolution.

    Returns an array shaped ``(C * kernel * kernel, out_h * out_w)`` whose
    column ``j`` holds the receptive field of output position ``j``.

    ``out`` lets a caller reuse a scratch buffer across forwards of the
    same shape (it must hold ``C * kernel² * out_h * out_w`` elements of
    ``x``'s dtype); the returned array is then a view into it, valid until
    the next call that reuses the buffer.
    """
    channels, height, width = x.shape
    out_h, out_w = conv_output_hw(height, width, kernel, stride, pad)
    padded = pad_chw(x, pad)
    if out is None:
        cols = np.empty(
            (channels, kernel, kernel, out_h, out_w), dtype=padded.dtype
        )
    else:
        if out.size != channels * kernel * kernel * out_h * out_w:
            raise ValueError(
                f"im2col buffer holds {out.size} elements, need "
                f"{channels * kernel * kernel * out_h * out_w}"
            )
        cols = out.reshape(channels, kernel, kernel, out_h, out_w)
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            cols[:, ky, kx, :, :] = padded[:, ky:y_end:stride, kx:x_end:stride]
    return cols.reshape(channels * kernel * kernel, out_h * out_w)


def im2col_batch(
    xs: np.ndarray,
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Unfold a batch of ``(N, C, H, W)`` tensors into stacked columns.

    Returns ``(N, C * kernel * kernel, out_h * out_w)`` — per-sample
    identical (bit for bit) to :func:`im2col`, but each receptive-field
    copy moves all N samples at once, amortizing the per-slice overhead
    that dominates small convolutions.
    """
    count, channels, height, width = xs.shape
    out_h, out_w = conv_output_hw(height, width, kernel, stride, pad)
    if pad:
        padded = np.zeros(
            (count, channels, height + 2 * pad, width + 2 * pad),
            dtype=xs.dtype,
        )
        padded[:, :, pad : pad + height, pad : pad + width] = xs
    else:
        padded = xs
    cols = np.empty(
        (count, channels, kernel, kernel, out_h, out_w), dtype=xs.dtype
    )
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            cols[:, :, ky, kx] = padded[:, :, ky:y_end:stride, kx:x_end:stride]
    return cols.reshape(count, channels * kernel * kernel, out_h * out_w)


def _window_slices(
    offset: int, stride: int, size: int, out: int
) -> Optional[Tuple[slice, slice]]:
    """One pooling-window offset along one axis: ``(outputs, sources)``.

    Output cell ``i`` reads source index ``i * stride + offset`` (``offset``
    is the position in the window minus the padding).  ``outputs`` selects
    the cells whose source lies inside ``[0, size)``, ``sources`` the
    strided run they read; ``None`` when no cell does (the offset lies
    wholly in the padding or beyond Caffe's clipped last window).
    """
    lo = -(offset // stride) if offset < 0 else 0  # ceil(-offset / stride)
    hi = min(out, (size - 1 - offset) // stride + 1)
    if hi <= lo:
        return None
    return (
        slice(lo, hi),
        slice(offset + lo * stride, offset + (hi - 1) * stride + 1, stride),
    )


def pool_patches(
    x: np.ndarray, kernel: int, stride: int, pad: int = 0
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Gather clipped pooling windows.

    Returns ``(patches, (out_h, out_w))`` where ``patches`` is a list-like
    object indexed as ``patches[c][i]`` — implemented as a masked stack with
    ``-inf`` outside the valid region so max pooling can reduce directly.
    """
    channels, height, width = x.shape
    out_h, out_w = pool_output_hw(height, width, kernel, stride, pad)
    neg = np.full(
        (channels, kernel, kernel, out_h, out_w), -np.inf, dtype=np.float32
    )
    # One strided slice copy per window offset; whatever a window reads
    # outside the image stays ``-inf``.
    columns = [
        _window_slices(kx - pad, stride, width, out_w) for kx in range(kernel)
    ]
    for ky in range(kernel):
        rows = _window_slices(ky - pad, stride, height, out_h)
        if rows is None:
            continue
        for kx, cols in enumerate(columns):
            if cols is not None:
                neg[:, ky, kx, rows[0], cols[0]] = x[:, rows[1], cols[1]]
    return neg, (out_h, out_w)


def max_pool_strided(
    x: np.ndarray,
    kernel: int,
    stride: int,
    pad: int = 0,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Max pooling as ``kernel²`` strided in-place maxima (no patch stack).

    Bitwise-identical to reducing :func:`pool_patches` with ``max`` — the
    maximum of the same window values is exact whatever the evaluation
    order — but touches each input element once per covering window instead
    of materializing the ``(C, k, k, out_h, out_w)`` stack, which dominated
    GoogLeNet's forward profile.

    ``out`` lets a caller reuse an output buffer across forwards (it must
    hold ``C * out_h * out_w`` float32 elements); the returned array is a
    view into it.  Works for any leading (channel-like) dimension, so a
    batched caller can fold ``(N, C, H, W)`` into ``(N*C, H, W)``.
    """
    channels, height, width = x.shape
    out_h, out_w = pool_output_hw(height, width, kernel, stride, pad)
    if out is None:
        result = np.empty((channels, out_h, out_w), dtype=np.float32)
    else:
        if out.size != channels * out_h * out_w:
            raise ValueError(
                f"max_pool buffer holds {out.size} elements, need "
                f"{channels * out_h * out_w}"
            )
        result = out.reshape(channels, out_h, out_w)
    result.fill(-np.inf)
    columns = [
        _window_slices(kx - pad, stride, width, out_w) for kx in range(kernel)
    ]
    for ky in range(kernel):
        rows = _window_slices(ky - pad, stride, height, out_h)
        if rows is None:
            continue
        for cols in columns:
            if cols is not None:
                target = result[:, rows[0], cols[0]]
                np.maximum(target, x[:, rows[1], cols[1]], out=target)
    return result


def element_count(shape: Shape3) -> int:
    count = 1
    for dim in shape:
        count *= dim
    return count


def text_serialized_bytes(shape_or_count) -> int:
    """Snapshot-text size of a feature tensor (decimal literals)."""
    if isinstance(shape_or_count, tuple):
        count = element_count(shape_or_count)
    else:
        count = int(shape_or_count)
    return count * TEXT_BYTES_PER_VALUE


def measure_text_bytes(array: np.ndarray) -> int:
    """Exact text size of an array serialized as full-precision literals.

    Used by tests to validate that :data:`TEXT_BYTES_PER_VALUE` is an honest
    approximation of real serialization.
    """
    flat = array.ravel()
    return sum(len(f"{float(value):.9e}") + 1 for value in flat)


def binary_serialized_bytes(shape_or_count) -> int:
    """float32 binary size of a feature tensor (4 bytes/value)."""
    if isinstance(shape_or_count, tuple):
        count = element_count(shape_or_count)
    else:
        count = int(shape_or_count)
    return count * 4
