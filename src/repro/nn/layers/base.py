"""The layer protocol shared by every CNN building block."""

from __future__ import annotations

import functools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim import SeededRng

Shape = Tuple[int, ...]
#: ``(name in the layer's parameter file, leaf layer, key in its params)``
Slot = Tuple[str, "Layer", str]


class LayerShapeError(ValueError):
    """Raised when a layer cannot accept its input shape."""


class Layer:
    """Base class: shape propagation, cost accounting, parameters, forward.

    Subclasses set :attr:`kind` (the key used by device throughput tables
    and the latency predictor) and implement :meth:`infer_shape`,
    :meth:`forward` and optionally :meth:`count_flops` /
    :meth:`param_shapes` + ``_init_scale``.

    A layer is *built* against a concrete input shape before use; building
    records input/output shapes and keeps the layer's random stream.  The
    parameters are drawn from it the first time :attr:`params` is read, so
    everything that needs only shapes (costs, parameter counts, Fig. 1)
    never draws them.
    """

    kind = "abstract"

    def __init__(self, name: str):
        self.name = name
        self.input_shape: Optional[Shape] = None
        self.out_shape: Optional[Shape] = None
        self._param_rng: Optional[SeededRng] = None

    # -- building -------------------------------------------------------------
    def build(self, input_shape: Shape, rng: SeededRng) -> Shape:
        """Bind the layer to an input shape; returns the output shape.

        Draws nothing: ``rng`` is kept for the first read of
        :attr:`params`.  Every leaf gets a stream of its own
        (``rng.child(...)``), so its bits do not depend on when, or in what
        order, the leaves are drawn.
        """
        self.input_shape = tuple(input_shape)
        self.out_shape = self.infer_shape(self.input_shape)
        self._param_rng = rng
        vars(self).pop("params", None)  # the next read draws
        return self.out_shape

    @functools.cached_property
    def params(self) -> Dict[str, np.ndarray]:
        """Parameter blobs by key.

        The first read after :meth:`build` runs :meth:`init_params`; the
        blobs then sit in the instance, so later reads cost an attribute
        lookup.  Assigning ``params`` as a whole installs blobs and drops
        the pending draw.
        """
        rng, self._param_rng = self._param_rng, None
        self.params = {}
        if rng is not None:
            self.init_params(rng)
        return self.params

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

    def param_shapes(self) -> Dict[str, Shape]:
        """The shape of every parameter blob, by key, from the bound input
        shape alone (default: parameter-free)."""
        return {}

    def init_params(self, rng: SeededRng) -> None:
        """Draw :attr:`params` at :meth:`param_shapes` from ``rng``: a
        normal ``weight`` whose standard deviation is the subclass's
        ``_init_scale()``, and a zero ``bias``.  Run by the first read of
        :attr:`params` after :meth:`build`; the shapes are declared once,
        so the drawn arrays cannot disagree with them."""
        shapes = self.param_shapes()
        if shapes:
            self.params = {
                "weight": rng.normal_array(shapes["weight"], self._init_scale()),
                "bias": np.zeros(shapes["bias"], dtype=np.float32),
            }

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
    def param_slots(self) -> List[Slot]:
        """Every blob of this layer's parameter file: a leaf's own keys;
        composites name their leaves' blobs by :func:`qualified_slots`."""
        return [(key, self, key) for key in self.param_shapes()]

    def param_arrays(self) -> Dict[str, np.ndarray]:
        """The arrays of this layer's parameter file, by slot name."""
        return {name: leaf.params[key] for name, leaf, key in self.param_slots()}

    @property
    def param_count(self) -> int:
        return sum(
            math.prod(leaf.param_shapes()[key]) for _, leaf, key in self.param_slots()
        )

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


def qualified_slots(groups: Iterable[Tuple[str, Sequence[Layer]]]) -> List[Slot]:
    """The slots of a composite's leaves, named ``{group}/{layer}/{key}``
    (``b0/...``, ``body/...``, ``head/...``): the one naming rule of a
    composite's parameter file."""
    return [
        (f"{group}/{layer.name}/{key}", layer, key)
        for group, layers in groups
        for layer in layers
        for key in layer.param_shapes()
    ]
