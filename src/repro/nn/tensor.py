"""Tensor helpers: shapes, im2col, pooling / LRN / eltwise kernels, text sizing.

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
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

Shape3 = Tuple[int, int, int]

#: Bytes per value when feature data is serialized as snapshot text.
#: A real JS snapshot stores typed-array contents as a decimal literal list;
#: the codec (repro.core.snapshot.codegen) writes "%.10e" and one separator:
#: exactly 17 bytes for a finite non-negative value, 18 for a negative one.
#: 18 is the one *pricing* constant — of the cost models, the partition
#: optimizer and the baselines — and, per tensor of ``n`` finite values,
#: an upper bound on the text capture renders (``17n - 1 <= len <= 18n``);
#: a captured snapshot's own size is the length of the text it holds.
#: Changing it moves virtual-clock results.  With 18 the GoogLeNet features
#: measure 14.5 MB after 1st_conv and 3.6 MB after 1st_pool, bracketing
#: the paper's 14.7 / 2.9 MB.
TEXT_BYTES_PER_VALUE = 18

#: the process-wide kernel scratch, one grow-only byte buffer per tag
_SCRATCH: Dict[str, np.ndarray] = {}


def scratch(tag: str, shape: Tuple[int, ...], dtype=np.float32) -> np.ndarray:
    """An uninitialized ``shape`` array over the process-wide ``tag`` buffer.

    There is one buffer per *tag* (im2col columns, LRN prefix sums, LRN
    window sums, pooled rows, the plans' ``arena``), grown to the largest
    request ever made and shared by every layer and shape — so consecutive
    kernels stream through the same cache-hot bytes instead of one cold
    buffer each.  Contents are valid only inside the kernel call (for
    ``arena``, the plan run) that took them — the next request for the tag
    hands out the same bytes — and nothing a kernel returns may alias them.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buffer = _SCRATCH.get(tag)
    if buffer is None or buffer.nbytes < nbytes:
        buffer = _SCRATCH[tag] = np.empty(nbytes, dtype=np.uint8)
    return buffer[:nbytes].view(dtype).reshape(shape)


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
    """Zero-pad height and width of a (..., H, W) tensor."""
    if pad == 0:
        return x
    height, width = x.shape[-2:]
    padded = np.zeros(
        x.shape[:-2] + (height + 2 * pad, width + 2 * pad), dtype=x.dtype
    )
    padded[..., pad : pad + height, pad : pad + width] = x
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
    column ``j`` holds the receptive field of output position ``j``.  A
    batch ``(N, C, H, W)`` unfolds to ``(N, C * kernel * kernel, out_h *
    out_w)`` — per sample the same bits, but each receptive-field copy
    moves all N samples at once, amortizing the per-slice overhead that
    dominates small convolutions.

    ``out`` lets a caller reuse a scratch buffer (it must hold ``[N *] C *
    kernel² * out_h * out_w`` elements of ``x``'s dtype); the returned
    array is then a view into it, valid until the next call that reuses
    the buffer.
    """
    lead = x.shape[:-2]
    height, width = x.shape[-2:]
    out_h, out_w = conv_output_hw(height, width, kernel, stride, pad)
    padded = pad_chw(x, pad)
    shape = lead + (kernel, kernel, out_h, out_w)
    if out is None:
        cols = np.empty(shape, dtype=padded.dtype)
    else:
        if out.size != math.prod(shape):
            raise ValueError(
                f"im2col buffer holds {out.size} elements, need {math.prod(shape)}"
            )
        cols = out.reshape(shape)
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            cols[..., ky, kx, :, :] = padded[..., ky:y_end:stride, kx:x_end:stride]
    return cols.reshape(lead[:-1] + (lead[-1] * kernel * kernel, out_h * out_w))


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
    """Max pooling as ``2 * kernel`` strided in-place maxima (no patch stack).

    Separable: the window rows are reduced first (whole contiguous image
    rows) into a ``(C, out_h, W)`` scratch, then the window columns.
    Bitwise-identical to reducing :func:`pool_patches` with ``max`` — the
    maximum of the same window values is exact whatever the evaluation
    order (only a tie between ``+0.0`` and ``-0.0``, or between NaNs of
    different payloads, is decided by it) — without materializing the
    ``(C, k, k, out_h, out_w)`` stack.

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
    rows = scratch("pool_rows", (channels, out_h, width))
    _max_windows(x, rows, kernel, stride, pad)
    _max_windows(
        rows.transpose(0, 2, 1), result.transpose(0, 2, 1), kernel, stride, pad
    )
    return result


def _max_windows(
    source: np.ndarray, target: np.ndarray, kernel: int, stride: int, pad: int
) -> None:
    """``target[:, i]`` = the maximum of ``source[:, i * stride - pad + k]``
    over the window offsets ``k`` that fall inside ``source``."""
    windows = [
        _window_slices(k - pad, stride, source.shape[1], target.shape[1])
        for k in range(kernel)
    ]
    # An offset that reaches every cell starts the reduction as a plain
    # copy; without one (windows wholly in the padding) start from -inf.
    whole = slice(0, target.shape[1])
    first = next((w for w in windows if w is not None and w[0] == whole), None)
    if first is None:
        target.fill(-np.inf)
    else:
        np.copyto(target, source[:, first[1]])
    for window in windows:
        if window is not None and window is not first:
            cells = target[:, window[0]]
            np.maximum(cells, source[:, window[1]], out=cells)


def pool(layer, x: np.ndarray, out=None) -> np.ndarray:
    """One pooling layer forward.

    Channels pool independently, so ``x`` may carry any number of them
    — a batch folded into the channel axis included.
    """
    if layer.mode == "max" and out is not None:
        return max_pool_strided(
            x, layer.kernel, layer.stride, layer.pad, out=out
        )
    patches, _ = pool_patches(x, layer.kernel, layer.stride, layer.pad)
    if layer.mode == "max":
        result = patches.max(axis=(1, 2))
    else:
        # The int64 window count silently promotes the divide to
        # float64 (kept verbatim for bitwise identity).
        finite = np.isfinite(patches)
        total = np.where(finite, patches, 0.0).sum(axis=(1, 2))
        result = total / np.maximum(finite.sum(axis=(1, 2)), 1)
    result = result.astype(np.float32, copy=False)
    if out is not None:
        target = out.reshape(result.shape)
        np.copyto(target, result)
        return target
    return result


def lrn(layer, x: np.ndarray) -> np.ndarray:
    """Across-channel LRN, one sample: a batch of one."""
    return lrn_batch(layer, x[None])[0]


def lrn_batch(layer, xs: np.ndarray) -> np.ndarray:
    """LRN along axis 1 of ``(N, C, H, W)`` (float64 prefix sums, every
    operation in place over scratch)."""
    scale = scratch("lrn_sums", xs.shape, np.float64)
    _lrn_window_sums(xs, layer.local_size // 2, scale)
    scale *= layer.alpha / layer.local_size
    scale += layer.k
    scale **= layer.beta
    np.divide(xs, scale, out=scale)
    return scale.astype(np.float32)


def _lrn_window_sums(xs: np.ndarray, half: int, sums: np.ndarray) -> None:
    """Across-channel sliding sums of ``xs ** 2`` (axis 1), in ``sums``'s dtype.

    ``sums[:, c]`` is the sum over channels ``c - half .. c + half`` clipped
    to the tensor, taken as a difference of running prefix sums (built in
    place over scratch): one slice subtraction for the channels whose
    window fits, one row subtraction for each of the ``<= 2 * half`` that
    are clipped.
    """
    channels = xs.shape[1]
    prefix = scratch(
        "lrn_prefix", (xs.shape[0], channels + 1) + xs.shape[2:], sums.dtype
    )
    prefix[:, 0] = 0.0
    running = prefix[:, 1:]
    np.multiply(xs, xs, out=running, dtype=sums.dtype)
    np.cumsum(running, axis=1, out=running)
    fitting = channels - 2 * half
    if fitting > 0:
        np.subtract(
            prefix[:, 2 * half + 1 :],
            prefix[:, :fitting],
            out=sums[:, half : channels - half],
        )
    left = min(half, channels)
    for c in (*range(left), *range(max(channels - half, left), channels)):
        np.subtract(
            prefix[:, min(c + half + 1, channels)],
            prefix[:, max(c - half, 0)],
            out=sums[:, c],
        )


def eltwise_sum(inputs: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
    """Elementwise sum of ``inputs`` into ``out``, accumulated left to right."""
    np.add(inputs[0], inputs[1], out=out)
    for extra in inputs[2:]:
        out += extra
    return out


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

