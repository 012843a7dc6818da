"""Inception modules: parallel branches concatenated along channels.

GoogLeNet "arranges multiple layers in parallel (depicted as squared boxes);
the features are concatenated into a single output vector and passed to the
next layer" (paper §II.B).  We model each inception module as one composite
layer on the network spine: internally a list of sequential branches whose
outputs are concatenated channel-wise.  Offload points in Fig. 8 are spine
positions, so treating a module as one spine unit matches the paper's
granularity.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from dataclasses import dataclass
from typing import Tuple

from repro.nn.layers.base import Layer, LayerShapeError, Shape, Slot, qualified_slots
from repro.sim import SeededRng


@dataclass(frozen=True)
class CompositeGraph:
    """A composite layer's branch-and-join structure, for the plan compiler.

    ``branches`` is an ordered list of ``(tag, layers)`` sequences that all
    read the composite's input; an *empty* layer list is the identity edge
    (a residual shortcut).  ``join`` names how branch outputs combine:
    ``"concat"`` (channel concatenation, in branch order) or ``"eltwise"``
    (elementwise sum).  Any layer exposing ``dag_branches()`` returning one
    of these is lowered into explicit branch/join plan nodes instead of
    being executed opaquely — new composite types need no compiler changes.
    """

    branches: Tuple
    join: str

    def __post_init__(self):
        if self.join not in ("concat", "eltwise"):
            raise ValueError(f"unknown join kind {self.join!r}")
        if not self.branches:
            raise ValueError("composite graph needs at least one branch")


class InceptionModule(Layer):
    """A composite layer of parallel branches joined by channel concat."""

    kind = "inception"

    def __init__(self, name: str, branches: Sequence[Sequence[Layer]]):
        super().__init__(name)
        if not branches or any(not branch for branch in branches):
            raise LayerShapeError(f"inception {name!r} needs non-empty branches")
        self.branches: List[List[Layer]] = [list(branch) for branch in branches]

    # -- building -------------------------------------------------------------
    def build(self, input_shape: Shape, rng: SeededRng) -> Shape:
        self.input_shape = tuple(input_shape)
        spatial = None
        channels_total = 0
        for index, branch in enumerate(self.branches):
            shape = self.input_shape
            for layer in branch:
                shape = layer.build(shape, rng.child(f"{self.name}/b{index}/{layer.name}"))
            if len(shape) != 3:
                raise LayerShapeError(
                    f"inception branch {index} of {self.name!r} must output "
                    f"(C,H,W), got {shape}"
                )
            if spatial is None:
                spatial = shape[1:]
            elif shape[1:] != spatial:
                raise LayerShapeError(
                    f"inception {self.name!r} branch {index} spatial dims "
                    f"{shape[1:]} != {spatial}; branches must agree for concat"
                )
            channels_total += shape[0]
        self.out_shape = (channels_total,) + spatial
        return self.out_shape

    def infer_shape(self, input_shape: Shape) -> Shape:
        # Shape inference requires built branches; build() handles it all.
        if self.out_shape is None:
            raise RuntimeError("InceptionModule.infer_shape before build()")
        return self.out_shape

    # -- execution -------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        self.check_input(x)
        outputs = []
        for branch in self.branches:
            value = x
            for layer in branch:
                value = layer.forward(value)
            outputs.append(value)
        return np.concatenate(outputs, axis=0)

    # -- accounting -------------------------------------------------------------
    def count_flops(self) -> float:
        total = sum(
            layer.count_flops() for branch in self.branches for layer in branch
        )
        # Concat copies every output element once.
        return total + float(self.output_elements)

    def inner_layers(self) -> List[Layer]:
        """All constituent layers, for profiling and model serialization."""
        return [layer for branch in self.branches for layer in branch]

    def dag_branches(self) -> "CompositeGraph":
        """How the plan compiler lowers this composite into branch/join
        nodes: every branch reads the module input, outputs are joined by
        a channel-wise concat."""
        return CompositeGraph(
            branches=[("b%d" % index, list(branch))
                      for index, branch in enumerate(self.branches)],
            join="concat",
        )

    def param_slots(self) -> List[Slot]:
        """Branch leaves' blobs, named ``b{i}/{layer}/{key}``."""
        return qualified_slots(self.dag_branches().branches)

    def config(self) -> dict:
        return {
            "branches": [
                [layer.describe() for layer in branch] for branch in self.branches
            ]
        }


class ResidualBlock(Layer):
    """A residual unit: ``out = body(x) + shortcut(x)`` (Eltwise SUM join).

    The post-GoogLeNet architecture generation (ResNets) replaces concat
    joins with elementwise adds.  The ``shortcut`` defaults to identity;
    a projection (1x1 conv) shortcut is used where the body changes shape.
    Like :class:`InceptionModule`, a block is one spine unit — offload
    points fall between blocks, matching how split-DNN systems treat
    residual networks.
    """

    kind = "residual"

    def __init__(
        self,
        name: str,
        body: Sequence[Layer],
        shortcut: Optional[Sequence[Layer]] = None,
    ):
        super().__init__(name)
        if not body:
            raise LayerShapeError(f"residual block {name!r} needs a non-empty body")
        self.body: List[Layer] = list(body)
        self.shortcut: List[Layer] = list(shortcut) if shortcut else []

    # -- building -------------------------------------------------------------
    def build(self, input_shape: Shape, rng: SeededRng) -> Shape:
        self.input_shape = tuple(input_shape)
        shape = self.input_shape
        for layer in self.body:
            shape = layer.build(shape, rng.child(f"{self.name}/body/{layer.name}"))
        shortcut_shape = self.input_shape
        for layer in self.shortcut:
            shortcut_shape = layer.build(
                shortcut_shape, rng.child(f"{self.name}/shortcut/{layer.name}")
            )
        if shape != shortcut_shape:
            raise LayerShapeError(
                f"residual block {self.name!r}: body outputs {shape} but the "
                f"shortcut outputs {shortcut_shape}; they must match for the add"
            )
        self.out_shape = shape
        return self.out_shape

    def infer_shape(self, input_shape: Shape) -> Shape:
        if self.out_shape is None:
            raise RuntimeError("ResidualBlock.infer_shape before build()")
        return self.out_shape

    # -- execution -------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        self.check_input(x)
        value = x
        for layer in self.body:
            value = layer.forward(value)
        residual = x
        for layer in self.shortcut:
            residual = layer.forward(residual)
        return (value + residual).astype(np.float32, copy=False)

    # -- accounting -------------------------------------------------------------
    def inner_layers(self) -> List[Layer]:
        return list(self.body) + list(self.shortcut)

    def dag_branches(self) -> CompositeGraph:
        """Body and shortcut as two branches joined by an elementwise add;
        an identity shortcut is the empty branch (the join reads the block
        input directly)."""
        return CompositeGraph(
            branches=[("body", list(self.body)),
                      ("shortcut", list(self.shortcut))],
            join="eltwise",
        )

    def count_flops(self) -> float:
        total = sum(layer.count_flops() for layer in self.inner_layers())
        # The elementwise add touches every output element once.
        return total + float(self.output_elements)

    def param_slots(self) -> List[Slot]:
        """Body and shortcut leaves' blobs, ``body|shortcut/{layer}/{key}``."""
        return qualified_slots(self.dag_branches().branches)

    def config(self) -> dict:
        return {
            "body": [layer.describe() for layer in self.body],
            "shortcut": [layer.describe() for layer in self.shortcut],
        }
