"""The layer protocol shared by every CNN building block."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.sim import SeededRng

Shape = Tuple[int, ...]


class LayerShapeError(ValueError):
    """Raised when a layer cannot accept its input shape."""


class Layer:
    """Base class: shape propagation, cost accounting, parameters, forward.

    Subclasses set :attr:`kind` (the key used by device throughput tables
    and the latency predictor) and implement :meth:`infer_shape`,
    :meth:`forward` and optionally :meth:`count_flops` /
    :meth:`init_params`.

    A layer is *built* against a concrete input shape before use; building
    records input/output shapes and allocates parameter blobs.
    """

    kind = "abstract"

    def __init__(self, name: str):
        self.name = name
        self.input_shape: Optional[Shape] = None
        self.out_shape: Optional[Shape] = None
        self.params: Dict[str, np.ndarray] = {}

    # -- building -------------------------------------------------------------
    def build(self, input_shape: Shape, rng: SeededRng) -> Shape:
        """Bind the layer to an input shape; returns the output shape."""
        self.input_shape = tuple(input_shape)
        self.out_shape = self.infer_shape(self.input_shape)
        self.init_params(rng)
        return self.out_shape

    @property
    def built(self) -> bool:
        return self.out_shape is not None

    def _require_built(self) -> None:
        if not self.built:
            raise RuntimeError(f"layer {self.name!r} used before build()")

    # -- protocol to implement -----------------------------------------------
    def infer_shape(self, input_shape: Shape) -> Shape:
        """Output shape for a given input shape."""
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Numpy forward pass for one sample."""
        raise NotImplementedError

    def init_params(self, rng: SeededRng) -> None:
        """Allocate parameter blobs (default: parameter-free)."""

    def count_flops(self) -> float:
        """Floating-point operations for one forward pass (default: free)."""
        return 0.0

    def invalidate_param_cache(self) -> None:
        """Install a writeable copy of every parameter array.

        Compiled plans, the conv operand cache and the model digests
        remember parameters by array identity and freeze the arrays they
        remember; call this before an in-place write.  The copies are new
        identities, so the next ``Network.forward*`` recompiles and every
        digest hashes the written bits.  Assigning a fresh array to
        ``params[key]`` needs no call.
        """
        for key, array in self.params.items():
            self.params[key] = array.copy()

    # -- common accounting -----------------------------------------------------
    @property
    def param_count(self) -> int:
        return int(sum(blob.size for blob in self.params.values()))

    @property
    def param_bytes(self) -> int:
        """float32 on-disk parameter size (what model files ship)."""
        return self.param_count * 4

    @property
    def output_elements(self) -> int:
        self._require_built()
        count = 1
        for dim in self.out_shape:
            count *= dim
        return count

    def check_input(self, x: np.ndarray) -> None:
        self._require_built()
        if tuple(x.shape) != self.input_shape:
            raise LayerShapeError(
                f"layer {self.name!r} expects input shape {self.input_shape}, "
                f"got {tuple(x.shape)}"
            )

    def describe(self) -> Dict:
        """JSON-able architecture description (no parameters)."""
        self._require_built()
        return {
            "name": self.name,
            "kind": self.kind,
            "input_shape": list(self.input_shape),
            "output_shape": list(self.out_shape),
            "config": self.config(),
        }

    def config(self) -> Dict:
        """Layer-specific hyperparameters for the description file."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = self.out_shape if self.built else "unbuilt"
        return f"{type(self).__name__}({self.name!r}, out={shape})"
