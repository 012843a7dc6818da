"""Pluggable kernel backends: every hot kernel call behind one interface.

The DNN kernels used to be a single fixed numpy path spread across the
layer classes and the plan steps.  This module abstracts them — conv
im2col GEMM, dense matmul, pooling, activation, LRN, and the eltwise/
concat joins — behind :class:`KernelBackend`, with two registered
implementations:

* ``reference`` — the exact numpy calls the layers always made, in the
  same order.  Plans executed under it are *bitwise identical* to the
  pre-backend code (the equivalence suite locks this against the raw
  layer walk).
* ``tuned`` — float32 end-to-end (the reference LRN and average-pool
  paths silently upcast to float64; ``tuned`` replaces them with
  preallocated-scratch float32 kernels), a row-blocked threaded GEMM for
  multi-core hosts, and dequant-free integer GEMM support for quantized
  plan steps (``supports_int_gemm``).  Outputs stay within 1e-4 of the
  reference and preserve every top-1 label across the zoo.

Backend selection: the CLI's ``--backend`` flag sets, for the duration
of that one command, both a process-wide override and the
:data:`BACKEND_ENV` environment variable, so forked pool workers inherit
the choice.  The active backend name is part of the result-cache key
(:mod:`repro.exec.cache`) and of ``Network.plan_for``'s memo key —
equivalence between backends is a *tested claim*, and a shared cache
entry would mask a regression.

Kernel-call counters are exported as ``backend_kernel_calls_total``
(labelled by backend and op) via :func:`record_backend_metrics`.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import im2col as _im2col
from repro.nn.tensor import im2col_batch as _im2col_batch
from repro.nn.tensor import max_pool_strided, pool_patches

#: process-wide backend choice inherited by forked pool workers
#: (the CLI's ``--backend`` exports it while the command runs)
BACKEND_ENV = "REPRO_BACKEND"

#: env override for the tuned backend's GEMM thread budget
BACKEND_THREADS_ENV = "REPRO_BACKEND_THREADS"

DEFAULT_BACKEND = "reference"

_BACKEND_OVERRIDE: Optional[str] = None


class BackendError(ValueError):
    """An unknown backend name was requested."""


def backend_names() -> Tuple[str, ...]:
    """The registered backend names, registration order."""
    return tuple(_REGISTRY)


def active_backend_name() -> str:
    """The process-wide backend: override first, then env, then default."""
    if _BACKEND_OVERRIDE is not None:
        return _BACKEND_OVERRIDE
    name = os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    if name not in _REGISTRY:
        raise BackendError(
            f"unknown backend {name!r} in ${BACKEND_ENV}; "
            f"choose from {sorted(_REGISTRY)}"
        )
    return name


def set_backend(name: Optional[str]) -> Optional[str]:
    """Force the backend process-wide; ``None`` restores the env default.

    Returns the override it replaced, so a scoped caller can put it back.
    """
    global _BACKEND_OVERRIDE
    if name is not None and name not in _REGISTRY:
        raise BackendError(
            f"unknown backend {name!r}; choose from {sorted(_REGISTRY)}"
        )
    previous = _BACKEND_OVERRIDE
    _BACKEND_OVERRIDE = name
    return previous


def get_backend(name: str) -> "KernelBackend":
    """The (memoized) backend instance registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = factory()
        _INSTANCES[name] = instance
    return instance


def active_backend() -> "KernelBackend":
    """The instance for :func:`active_backend_name`."""
    return get_backend(active_backend_name())


def effective_threads() -> int:
    """The tuned backend's GEMM thread budget on this host.

    ``REPRO_BACKEND_THREADS`` wins; otherwise the CPU count.  A budget of
    1 disables the threaded GEMM path entirely (a thread pool cannot
    outrun a single core).
    """
    raw = os.environ.get(BACKEND_THREADS_ENV)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return os.cpu_count() or 1


class KernelBackend:
    """The kernel interface plans and layers execute through.

    Every method mirrors one hot call site of the pre-backend code; the
    base class *is* the reference implementation (the same numpy
    expressions, same order, so results are bitwise identical to the
    original layer walk).  Subclasses override individual kernels.

    Instances are process-wide singletons and keep per-op call counters
    in :attr:`calls` — cheap enough next to any kernel, and what
    ``backend_kernel_calls_total`` exports.
    """

    name = "reference"
    #: whether :meth:`quantized_gemm` may take the dequant-free integer path
    supports_int_gemm = False

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}

    def _count(self, op: str) -> None:
        self.calls[op] = self.calls.get(op, 0) + 1

    # -- GEMM ------------------------------------------------------------------
    def gemm(
        self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``a @ b`` (2-D x 1-D/2-D/broadcast 3-D), optionally into ``out``."""
        self._count("gemm")
        if out is not None:
            np.matmul(a, b, out=out)
            return out
        return np.matmul(a, b)

    # -- im2col ----------------------------------------------------------------
    def im2col(self, x, kernel, stride, pad, out=None) -> np.ndarray:
        self._count("im2col")
        return _im2col(x, kernel, stride, pad, out=out)

    def im2col_batch(self, xs, kernel, stride, pad) -> np.ndarray:
        self._count("im2col")
        return _im2col_batch(xs, kernel, stride, pad)

    # -- activation ------------------------------------------------------------
    def relu(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        self._count("relu")
        if out is not None:
            np.maximum(x, 0.0, out=out)
            return out
        return np.maximum(x, 0.0).astype(np.float32, copy=False)

    def relu_inplace(self, x: np.ndarray) -> np.ndarray:
        self._count("relu")
        np.maximum(x, 0.0, out=x)
        return x

    # -- pooling ---------------------------------------------------------------
    def pool(self, layer, x: np.ndarray, out=None) -> np.ndarray:
        """One pooling layer forward (the exact reference control flow)."""
        self._count("pool")
        if layer.mode == "max" and out is not None:
            result = max_pool_strided(
                x, layer.kernel, layer.stride, layer.pad, out=out
            )
            return result.reshape(layer.out_shape)
        patches, _ = pool_patches(x, layer.kernel, layer.stride, layer.pad)
        if layer.mode == "max":
            result = patches.max(axis=(1, 2))
        else:
            result = self._avg_reduce(patches)
        result = result.reshape(layer.out_shape).astype(np.float32, copy=False)
        if out is not None:
            target = out.reshape(layer.out_shape)
            np.copyto(target, result)
            return target
        return result

    def _avg_reduce(self, patches: np.ndarray) -> np.ndarray:
        # Reference semantics: the int64 window count silently promotes
        # the divide to float64 (kept verbatim for bitwise identity).
        finite = np.isfinite(patches)
        total = np.where(finite, patches, 0.0).sum(axis=(1, 2))
        count = finite.sum(axis=(1, 2))
        return total / np.maximum(count, 1)

    def max_pool_batch(self, layer, xs: np.ndarray) -> np.ndarray:
        self._count("pool")
        count = xs.shape[0]
        folded = xs.reshape((-1,) + xs.shape[2:])
        pooled = max_pool_strided(folded, layer.kernel, layer.stride, layer.pad)
        return pooled.reshape((count,) + layer.out_shape)

    # -- LRN -------------------------------------------------------------------
    def lrn(self, layer, x: np.ndarray) -> np.ndarray:
        """Across-channel LRN, one sample (reference: float64 prefix sums)."""
        self._count("lrn")
        channels = x.shape[0]
        half = layer.local_size // 2
        squared = x.astype(np.float64) ** 2
        prefix = np.concatenate(
            [np.zeros((1,) + x.shape[1:]), np.cumsum(squared, axis=0)], axis=0
        )
        lo = np.clip(np.arange(channels) - half, 0, channels)
        hi = np.clip(np.arange(channels) + half + 1, 0, channels)
        window_sums = prefix[hi] - prefix[lo]
        scale = (
            layer.k + (layer.alpha / layer.local_size) * window_sums
        ) ** layer.beta
        return (x / scale).astype(np.float32)

    def lrn_batch(self, layer, xs: np.ndarray) -> np.ndarray:
        """LRN across a batch: the per-sample math applied along axis 1."""
        self._count("lrn")
        channels = xs.shape[1]
        half = layer.local_size // 2
        squared = xs.astype(np.float64) ** 2
        prefix = np.concatenate(
            [
                np.zeros((xs.shape[0], 1) + xs.shape[2:]),
                np.cumsum(squared, axis=1),
            ],
            axis=1,
        )
        lo = np.clip(np.arange(channels) - half, 0, channels)
        hi = np.clip(np.arange(channels) + half + 1, 0, channels)
        window_sums = prefix[:, hi] - prefix[:, lo]
        scale = (
            layer.k + (layer.alpha / layer.local_size) * window_sums
        ) ** layer.beta
        return (xs / scale).astype(np.float32)

    # -- joins -----------------------------------------------------------------
    def concat(
        self, inputs: Sequence[np.ndarray], axis: int, out=None
    ) -> np.ndarray:
        self._count("concat")
        if out is not None:
            np.concatenate(list(inputs), axis=axis, out=out)
            return out
        return np.concatenate(list(inputs), axis=axis)

    def eltwise_sum(self, inputs: Sequence[np.ndarray], out=None) -> np.ndarray:
        self._count("eltwise")
        if out is not None:
            np.add(inputs[0], inputs[1], out=out)
        else:
            out = inputs[0] + inputs[1]
        for extra in inputs[2:]:
            out += extra
        return out

    # -- quantized GEMM --------------------------------------------------------
    def quantized_gemm(self, qmatrix, x: np.ndarray, out=None) -> np.ndarray:
        """``dequantize(qmatrix) @ x`` without materializing per call.

        The reference path multiplies against the lazily cached float32
        dequantized matrix (BLAS-fast, deterministic); backends with
        ``supports_int_gemm`` may instead quantize ``x`` and accumulate
        integer products, never touching float weights (see
        :class:`TunedBackend`).
        """
        self._count("quantized_gemm")
        return self.gemm(qmatrix.dequantized(), x, out=out)


class TunedBackend(KernelBackend):
    """float32 end-to-end kernels with blocked/threaded GEMM.

    The reference LRN and average-pool kernels promote to float64
    mid-expression; on GoogLeNet the two LRN layers alone are ~28% of the
    compiled plan's forward.  This backend keeps every kernel in float32
    (preallocated scratch, in-place ops), splits large GEMMs across a
    thread pool when the host has cores to spare (numpy releases the GIL
    inside matmul), and supports dequant-free integer GEMM for quantized
    plan steps.  Results are within 1e-4 relative error of the reference
    and preserve top-1 labels — asserted by the equivalence suite.
    """

    name = "tuned"
    supports_int_gemm = True

    #: row-block size for the threaded GEMM (large enough that per-task
    #: overhead is noise next to the block's matmul)
    GEMM_BLOCK_ROWS = 64
    #: below this output-element count a GEMM is not worth fanning out
    GEMM_THREAD_MIN_ELEMENTS = 1 << 16
    #: largest codes.size * columns product routed to the integer path
    #: (numpy integer matmul has no BLAS behind it)
    INT_GEMM_LIMIT = 1 << 22

    def __init__(self) -> None:
        super().__init__()
        self.threads = effective_threads()
        self._pool = None
        self._scratch: Dict[Tuple[str, Tuple[int, ...]], np.ndarray] = {}

    def scratch(self, tag: str, shape: Tuple[int, ...]) -> np.ndarray:
        """A preallocated float32 scratch buffer, reused per (tag, shape)."""
        key = (tag, tuple(shape))
        buffer = self._scratch.get(key)
        if buffer is None:
            buffer = np.empty(shape, dtype=np.float32)
            self._scratch[key] = buffer
        return buffer

    # -- GEMM ------------------------------------------------------------------
    def gemm(self, a, b, out=None):
        if (
            self.threads > 1
            and a.ndim == 2
            and b.ndim == 2
            and a.shape[0] >= 2 * self.GEMM_BLOCK_ROWS
            and a.shape[0] * b.shape[1] >= self.GEMM_THREAD_MIN_ELEMENTS
        ):
            return self._threaded_gemm(a, b, out)
        return super().gemm(a, b, out=out)

    def _threaded_gemm(self, a, b, out):
        """Row-blocked ``a @ b`` across the thread pool.

        Each task multiplies a contiguous row block of ``a`` straight into
        its slice of ``out`` — the split is over independent output rows,
        so there is no reduction step and no inter-thread scratch beyond
        the output itself (BLAS may still reorder accumulation within a
        row, which is why ``tuned`` is tolerance-locked, not bitwise).
        """
        self._count("gemm")
        self._count("gemm_threaded")
        if out is None:
            # Fresh, not scratch: plan values can outlive the call, and a
            # shared buffer would be clobbered by the next same-shape GEMM.
            out = np.empty((a.shape[0], b.shape[1]), dtype=np.float32)
        pool = self._gemm_pool()
        rows = a.shape[0]
        block = max(self.GEMM_BLOCK_ROWS, -(-rows // self.threads))
        futures = [
            pool.submit(np.matmul, a[lo : lo + block], b, out=out[lo : lo + block])
            for lo in range(0, rows, block)
        ]
        for future in futures:
            future.result()
        return out

    def _gemm_pool(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.threads, thread_name_prefix="repro-gemm"
            )
        return self._pool

    # -- pooling ---------------------------------------------------------------
    def _avg_reduce(self, patches: np.ndarray) -> np.ndarray:
        # float32 divide: the int64 count is cast before the division, so
        # nothing in the expression promotes to float64.
        finite = np.isfinite(patches)
        total = np.where(finite, patches, np.float32(0.0)).sum(axis=(1, 2))
        count = np.maximum(finite.sum(axis=(1, 2)), 1).astype(np.float32)
        return total / count

    # -- LRN -------------------------------------------------------------------
    def lrn(self, layer, x: np.ndarray) -> np.ndarray:
        self._count("lrn")
        channels = x.shape[0]
        half = layer.local_size // 2
        squared = self.scratch("lrn_sq", x.shape)
        np.multiply(x, x, out=squared)
        prefix = self.scratch("lrn_prefix", (channels + 1,) + x.shape[1:])
        prefix[0] = 0.0
        np.cumsum(squared, axis=0, out=prefix[1:])
        lo = np.clip(np.arange(channels) - half, 0, channels)
        hi = np.clip(np.arange(channels) + half + 1, 0, channels)
        scale = prefix[hi] - prefix[lo]  # fresh array: fancy indexing copies
        scale *= np.float32(layer.alpha / layer.local_size)
        scale += np.float32(layer.k)
        np.power(scale, np.float32(layer.beta), out=scale)
        np.divide(x, scale, out=scale)
        return scale

    def lrn_batch(self, layer, xs: np.ndarray) -> np.ndarray:
        self._count("lrn")
        channels = xs.shape[1]
        half = layer.local_size // 2
        squared = self.scratch("lrn_sq_b", xs.shape)
        np.multiply(xs, xs, out=squared)
        prefix = self.scratch(
            "lrn_prefix_b", (xs.shape[0], channels + 1) + xs.shape[2:]
        )
        prefix[:, 0] = 0.0
        np.cumsum(squared, axis=1, out=prefix[:, 1:])
        lo = np.clip(np.arange(channels) - half, 0, channels)
        hi = np.clip(np.arange(channels) + half + 1, 0, channels)
        scale = prefix[:, hi] - prefix[:, lo]
        scale *= np.float32(layer.alpha / layer.local_size)
        scale += np.float32(layer.k)
        np.power(scale, np.float32(layer.beta), out=scale)
        np.divide(xs, scale, out=scale)
        return scale

    # -- quantized GEMM --------------------------------------------------------
    def quantized_gemm(self, qmatrix, x, out=None):
        columns = int(x.shape[-1]) if x.ndim > 1 else 1
        if (
            x.ndim <= 2
            and qmatrix.bits <= 8  # int32 accumulator headroom
            and qmatrix.codes.size * columns <= self.INT_GEMM_LIMIT
        ):
            return self._int_quantized_gemm(qmatrix, x, out)
        return super().quantized_gemm(qmatrix, x, out=out)

    def _int_quantized_gemm(self, qmatrix, x, out):
        """Dequant-free integer GEMM.

        With ``W = s·Q + z`` (affine weight codes; ``s``/``z`` a scalar
        for per-tensor weights or a per-row vector for per-channel
        weights) and ``x = s_x·Qx + z_x`` (activations quantized on the
        fly, always per-tensor):

        ``W@x = s·s_x·(Q@Qx) + s·z_x·rowsum(Q) + z·s_x·colsum(Qx)
        + z·z_x·K``

        — one integer matmul plus rank-1 float corrections; the float
        weight matrix is never materialized.  Accumulation is int32
        (codes are ≤8 bits, so products fit for any K the zoo reaches).
        Per-channel ``s``/``z`` ride the row axis, so every correction
        term broadcasts as a column vector.
        """
        self._count("quantized_gemm")
        self._count("quantized_gemm_int")
        from repro.nn.quantize import quantize_linear

        qx = quantize_linear(x, 8)
        codes_x = qx.codes.astype(np.int32).reshape(x.shape)
        acc = qmatrix.codes_i32() @ codes_x
        # (1,) for per-tensor weights, (rows,) for per-channel.
        s = np.atleast_1d(np.asarray(qmatrix.scale, dtype=np.float32))
        z = np.atleast_1d(np.asarray(qmatrix.zero_point, dtype=np.float32))
        s_x, z_x = np.float32(qx.scale), np.float32(qx.zero_point)
        depth = np.float32(qmatrix.shape[-1])
        result = acc.astype(np.float32)
        row_term = (s * z_x) * qmatrix.row_sums()
        col_sums = codes_x.sum(axis=0, dtype=np.int64).astype(np.float32)
        const_term = z * (z_x * depth)
        if x.ndim > 1:
            result *= (s * s_x)[:, None]
            result += row_term[:, None]
            result += z[:, None] * (s_x * col_sums)[None, :]
            result += const_term[:, None]
        else:
            result *= s * s_x
            result += row_term
            result += z * (s_x * col_sums)
            result += const_term
        if out is not None:
            np.copyto(out, result)
            return out
        return result


_REGISTRY = {
    "reference": KernelBackend,
    "tuned": TunedBackend,
}
_INSTANCES: Dict[str, KernelBackend] = {}


def blas_info() -> Dict[str, object]:
    """The numpy build's BLAS/LAPACK configuration, JSON-friendly.

    Recorded in the bench's ``environment`` block so cross-box
    trajectories are interpretable (a 1.2x GEMM on OpenBLAS and on
    netlib are different facts).
    """
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # pragma: no cover - older numpy without mode=
        return {"numpy": np.__version__}
    deps = config.get("Build Dependencies", {})
    info: Dict[str, object] = {"numpy": np.__version__}
    for kind in ("blas", "lapack"):
        entry = deps.get(kind, {})
        info[kind] = {
            key: entry.get(key)
            for key in ("name", "version", "detection method")
            if entry.get(key) is not None
        }
    return info


def record_backend_metrics(registry) -> None:
    """Export kernel-call counters into a metrics registry.

    Like plan metrics, called explicitly (``repro metrics``) rather than
    auto-announced: which process runs which kernels depends on worker
    topology, so implicit announcement would make merged telemetry
    nondeterministic across ``--jobs``.
    """
    registry.gauge(
        "backend_threads",
        help="GEMM thread budget of the tuned backend on this host",
    ).set(effective_threads())
    for name, instance in _INSTANCES.items():
        for op, count in sorted(instance.calls.items()):
            registry.counter(
                "backend_kernel_calls_total",
                help="kernel invocations through the backend interface",
                backend=name,
                op=op,
            ).inc(count)
