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
* ``tuned`` — the reference kernels with one override: LRN in float32
  (the reference LRN works in float64; on GoogLeNet's two LRN layers that
  is ≈ 10.5 ms → ≈ 5.3 ms per forward).  Every other kernel —
  GEMM, pooling, the joins — is inherited: an override has to beat the
  base kernel in the ledger to exist (docs/PERFORMANCE.md, "Kernel
  backends").  Outputs stay within 1e-4 of the reference and preserve
  every top-1 label across the zoo.

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
from repro.nn.tensor import max_pool_strided, pool_patches, scratch

#: process-wide backend choice inherited by forked pool workers
#: (the CLI's ``--backend`` exports it while the command runs)
BACKEND_ENV = "REPRO_BACKEND"

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
        """Unfold one ``(C, H, W)`` sample or a whole ``(N, C, H, W)`` batch."""
        self._count("im2col")
        return _im2col(x, kernel, stride, pad, out=out)

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
        """One pooling layer forward (the exact reference control flow).

        Channels pool independently, so ``x`` may carry any number of them
        — a batch folded into the channel axis included.
        """
        self._count("pool")
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

    def max_pool_batch(self, layer, xs: np.ndarray) -> np.ndarray:
        self._count("pool")
        count = xs.shape[0]
        folded = xs.reshape((-1,) + xs.shape[2:])
        pooled = max_pool_strided(folded, layer.kernel, layer.stride, layer.pad)
        return pooled.reshape((count,) + layer.out_shape)

    # -- LRN -------------------------------------------------------------------
    def lrn(self, layer, x: np.ndarray) -> np.ndarray:
        """Across-channel LRN, one sample: a batch of one."""
        return self.lrn_batch(layer, x[None])[0]

    def lrn_batch(self, layer, xs: np.ndarray) -> np.ndarray:
        """LRN along axis 1 of ``(N, C, H, W)`` (reference: float64 prefix
        sums, every operation in place over scratch)."""
        self._count("lrn")
        scale = scratch("lrn_sums", xs.shape, np.float64)
        _lrn_window_sums(xs, layer.local_size // 2, scale)
        scale *= layer.alpha / layer.local_size
        scale += layer.k
        scale **= layer.beta
        np.divide(xs, scale, out=scale)
        return scale.astype(np.float32)

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


class TunedBackend(KernelBackend):
    """The reference kernels with a float32 LRN.

    The reference LRN works in float64; on GoogLeNet the two LRN layers
    are ~15% of the compiled plan's forward.  This backend computes the
    same window sums and in-place ops in float32 (half the bytes) and
    inherits every other kernel unchanged.  Results are within 1e-4
    relative error of the reference and preserve top-1 labels — asserted
    by the equivalence suite.
    """

    name = "tuned"

    def lrn_batch(self, layer, xs: np.ndarray) -> np.ndarray:
        self._count("lrn")
        scale = np.empty(xs.shape, dtype=np.float32)
        _lrn_window_sums(xs, layer.local_size // 2, scale)
        scale *= np.float32(layer.alpha / layer.local_size)
        scale += np.float32(layer.k)
        np.power(scale, np.float32(layer.beta), out=scale)
        np.divide(xs, scale, out=scale)
        return scale


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
    for name, instance in _INSTANCES.items():
        for op, count in sorted(instance.calls.items()):
            registry.counter(
                "backend_kernel_calls_total",
                help="kernel invocations through the backend interface",
                backend=name,
                op=op,
            ).inc(count)
