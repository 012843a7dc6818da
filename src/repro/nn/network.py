"""The network: an ordered spine of layers with front/rear splitting.

The benchmark CNNs are sequential at the granularity the paper offloads at:
a *spine* of layers (some of which are composite inception modules).  The
network supports

* full forward execution (``forward``),
* splitting into two networks at an offload point (``split``) — the
  mechanism behind ``inference_front()`` / ``inference_rear()`` in the
  paper's Fig. 5, each half a network of its own,
* pruning at an early exit (``at_exit``), and
* enumeration of named offload points matching Fig. 8's X axis
  (``input``, ``1st_conv``, ``1st_pool``, ``2nd_conv``, …).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers.base import Layer, Shape
from repro.nn.layers.io import InputLayer
from repro.sim import SeededRng

_ORDINALS = (
    "1st", "2nd", "3rd", "4th", "5th", "6th", "7th", "8th", "9th",
    "10th", "11th", "12th",
)


def _ordinal(index: int) -> str:
    if index < len(_ORDINALS):
        return _ORDINALS[index]
    return f"{index + 1}th"


@dataclass(frozen=True)
class OffloadPoint:
    """A candidate split: client executes spine[0..index], server the rest."""

    index: int
    label: str
    layer_name: str
    layer_kind: str


@dataclass(frozen=True)
class ExitPoint:
    """A candidate exit: stop at spine ``index`` with modeled ``accuracy``.

    For an early exit, ``index`` is the spine position of the
    :class:`~repro.nn.layers.exits.ExitHead` whose classifier runs instead
    of the remaining trunk; the *final* exit (``is_final``) is the trunk's
    own classifier at the last spine index.  Every network has at least the
    final exit, so exit-oblivious callers degrade gracefully.
    """

    index: int
    name: str
    accuracy: float
    is_final: bool = False


class Network:
    """An ordered spine of layers, built against a concrete input shape."""

    def __init__(self, name: str, layers: Sequence[Layer]):
        if not layers:
            raise ValueError(f"network {name!r} needs at least one layer")
        self.name = name
        self.layers: List[Layer] = list(layers)
        self.input_shape: Optional[Shape] = None
        self._built = False
        #: modeled top-1 accuracy of the full network (None: unmodeled);
        #: zoo builders of multi-exit variants set it so the joint
        #: (split, exit) optimizer can rank the final exit too
        self.final_accuracy: Optional[float] = None
        #: the compiled execution plan of the whole spine (None: not yet)
        self._plan = None

    # -- building -------------------------------------------------------------
    def build(
        self, rng: Optional[SeededRng] = None, input_shape: Optional[Shape] = None
    ) -> "Network":
        """Bind shapes along the spine; each layer keeps a child stream of
        ``rng`` and draws its parameters on their first read."""
        rng = rng or SeededRng(0, f"net/{self.name}")
        if input_shape is None:
            first = self.layers[0]
            if not isinstance(first, InputLayer):
                raise ValueError(
                    f"network {self.name!r} has no InputLayer; "
                    "pass input_shape explicitly"
                )
            input_shape = first.declared_shape
        shape = tuple(input_shape)
        self.input_shape = shape
        for layer in self.layers:
            shape = layer.build(shape, rng.child(layer.name))
        self._built = True
        return self

    @property
    def built(self) -> bool:
        return self._built

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError(f"network {self.name!r} used before build()")

    @property
    def output_shape(self) -> Shape:
        self._require_built()
        return self.layers[-1].out_shape

    # -- execution -------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Full forward pass for one sample (through the compiled plan)."""
        return self.plan_for().forward(x)

    def forward_batch(self, xs) -> np.ndarray:
        """Forward N samples; returns the stacked ``(N, ...)`` outputs.

        Runs one stacked kernel per plan step (a single im2col/matmul per
        conv for the whole batch) on the rows the inference memo cannot
        answer; row ``i`` is the bits ``forward(xs[i])`` returns.
        """
        return self.plan_for().forward_batch(xs)

    def forward_reference(
        self, x: np.ndarray, start: int = 0, end: Optional[int] = None
    ) -> np.ndarray:
        """Walk layers ``start..end`` one by one: the oracle plans are
        tested against (:mod:`repro.nn.plan`), not a runtime path."""
        self._require_built()
        if end is None:
            end = len(self.layers) - 1
        if not (0 <= start <= end < len(self.layers)):
            raise IndexError(
                f"invalid layer range [{start}, {end}] for network "
                f"{self.name!r} with {len(self.layers)} layers"
            )
        value = np.asarray(x, dtype=np.float32)
        for layer in self.layers[start : end + 1]:
            value = layer.forward(value)
        return value

    def plan_for(self):
        """The compiled :class:`~repro.nn.plan.ExecutionPlan` of the network.

        The plan is memoized and recompiled automatically when any captured
        parameter array has been replaced (the same identity rule the conv
        operand cache uses).
        """
        from repro.nn.plan import compile_plan

        self._require_built()
        if self._plan is None or not self._plan.is_valid():
            self._plan = compile_plan(self)
        return self._plan

    def forward_with_activations(self, x: np.ndarray) -> List[np.ndarray]:
        """Forward pass returning the output of every spine layer."""
        self._require_built()
        value = np.asarray(x, dtype=np.float32)
        activations = []
        for layer in self.layers:
            value = layer.forward(value)
            activations.append(value)
        return activations

    # -- splitting -------------------------------------------------------------
    def split(self, index: int) -> "SplitNetwork":
        """Split after spine layer ``index`` (the offload point).

        Both halves share the original (already built) layer objects — the
        same arrays the model files describe, so front+rear inference is
        bit-identical to full inference.
        """
        self._require_built()
        if not 0 <= index < len(self.layers) - 1:
            raise IndexError(
                f"split index {index} out of range 0..{len(self.layers) - 2} "
                f"({len(self.layers)} layers, the rear part needs at least one)"
            )
        front = Network(f"{self.name}/front", self.layers[: index + 1])
        front.input_shape = self.input_shape
        front._built = True
        rear = Network(f"{self.name}/rear", self.layers[index + 1 :])
        rear.input_shape = self.layers[index].out_shape
        rear._built = True
        return SplitNetwork(front=front, rear=rear, split_index=index)

    # -- offload points -------------------------------------------------------
    def offload_points(self) -> List[OffloadPoint]:
        """Named candidate offload points along the spine.

        ``input`` (index 0) means full offloading — the client ships the raw
        input.  Conv/pool spine layers get Fig.-8-style ordinal labels; other
        spine layers (LRN, inception, fc, …) are addressable by layer name.
        The final layer is excluded (nothing left to offload after it).
        """
        self._require_built()
        points: List[OffloadPoint] = []
        conv_seen = 0
        pool_seen = 0
        for index, layer in enumerate(self.layers[:-1]):
            if layer.kind == "input":
                label = "input"
            elif layer.kind == "conv":
                label = f"{_ordinal(conv_seen)}_conv"
                conv_seen += 1
            elif layer.kind == "pool":
                label = f"{_ordinal(pool_seen)}_pool"
                pool_seen += 1
            else:
                label = layer.name
            points.append(
                OffloadPoint(
                    index=index,
                    label=label,
                    layer_name=layer.name,
                    layer_kind=layer.kind,
                )
            )
        return points

    def point_by_label(self, label: str) -> OffloadPoint:
        for point in self.offload_points():
            if point.label == label:
                return point
        raise KeyError(f"no offload point labelled {label!r} in {self.name!r}")

    # -- early exits -------------------------------------------------------
    def exit_points(self) -> List[ExitPoint]:
        """Every place inference may stop, earliest first.

        One :class:`ExitPoint` per :class:`~repro.nn.layers.exits.ExitHead`
        on the spine, plus the final exit (the trunk's own classifier).  A
        network without exit heads still returns the final exit, so the
        deadline optimizer works on any zoo model.
        """
        from repro.nn.layers.exits import ExitHead

        self._require_built()
        points = [
            ExitPoint(index=index, name=layer.name, accuracy=layer.accuracy)
            for index, layer in enumerate(self.layers)
            if isinstance(layer, ExitHead)
        ]
        points.append(
            ExitPoint(
                index=len(self.layers) - 1,
                name="final",
                accuracy=(
                    self.final_accuracy if self.final_accuracy is not None
                    else 1.0
                ),
                is_final=True,
            )
        )
        return points

    def exit_by_name(self, name: str) -> ExitPoint:
        for point in self.exit_points():
            if point.name == name:
                return point
        raise KeyError(f"no exit named {name!r} in {self.name!r}")

    def at_exit(self, exit_index: Optional[int]) -> "Network":
        """The network truncated at an exit: trunk up to it, then its head.

        ``exit_index`` is the spine index of an
        :class:`~repro.nn.layers.exits.ExitHead` (``None`` or the last
        index: the full network, returned as-is).  The result shares the
        original built layer objects — the pruned walk is bit-identical to
        running the trunk then the head in place — so it can be wrapped in
        a :class:`~repro.nn.model.Model`, split at any offload point before
        the exit, and served like any other network.
        """
        from repro.nn.layers.exits import ExitHead

        self._require_built()
        if exit_index is None or exit_index == len(self.layers) - 1:
            return self
        layer = self.layers[exit_index]
        if not isinstance(layer, ExitHead):
            raise ValueError(
                f"layer {exit_index} of {self.name!r} is {layer.kind!r}, "
                "not an exit head"
            )
        pruned = Network(
            f"{self.name}@{layer.name}",
            list(self.layers[:exit_index]) + list(layer.head),
        )
        pruned.input_shape = self.input_shape
        pruned._built = True
        pruned.final_accuracy = layer.accuracy
        return pruned

    # -- accounting -------------------------------------------------------------
    @property
    def param_count(self) -> int:
        return sum(layer.param_count for layer in self.layers)

    @property
    def param_bytes(self) -> int:
        return sum(layer.param_bytes for layer in self.layers)

    def describe(self) -> dict:
        self._require_built()
        description = {
            "name": self.name,
            "input_shape": list(self.input_shape),
            "layers": [layer.describe() for layer in self.layers],
        }
        # Only multi-exit variants carry the key: adding it unconditionally
        # would perturb every existing model's description checksum.
        if self.final_accuracy is not None:
            description["final_accuracy"] = self.final_accuracy
        return description

    def __len__(self) -> int:
        return len(self.layers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "built" if self._built else "unbuilt"
        return f"Network({self.name!r}, {len(self.layers)} layers, {state})"


@dataclass(frozen=True)
class SplitNetwork:
    """Front/rear halves produced by :meth:`Network.split`."""

    front: Network
    rear: Network
    split_index: int

    def forward(self, x: np.ndarray) -> np.ndarray:
        """front ∘ rear — must equal the unsplit network's forward."""
        return self.rear.forward(self.front.forward(x))

    @property
    def feature_shape(self) -> Tuple[int, ...]:
        """Shape of the tensor crossing the network (the "feature data")."""
        return self.front.layers[-1].out_shape
