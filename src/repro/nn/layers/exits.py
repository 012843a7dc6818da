"""Early-exit classifier heads for multi-exit networks.

Edgent ("Edge AI: On-Demand Accelerating DNN Inference") and BranchyNet
attach small auxiliary classifiers to trunk layers of a CNN so a
deadline-constrained inference can stop early, trading top-1 accuracy for
latency.  GoogLeNet itself ships two such heads (after inception_4a and
inception_4d) — used only for training in the original, but exactly the
structure an early-exit deployment reuses.

An :class:`ExitHead` sits *on* the network spine at its attach point.  On
the trunk path it is the identity (deploy-time GoogLeNet drops its aux
heads, so the full-network output is untouched); the head layers only run
when the exit is actually taken — ``Network.at_exit`` materializes the
pruned network (the trunk up to the attach point, then the head), which
is priced, compiled, split and served like any other network; there is no
exit plan.  Each head carries a *modeled* top-1 accuracy, the quantity the
joint (split, exit) optimizer maximizes under a latency deadline.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.nn.layers.base import Layer, LayerShapeError, Shape, Slot, qualified_slots
from repro.sim import SeededRng


class ExitHead(Layer):
    """An early-exit classifier branch attached to a trunk layer.

    ``head`` is the sequential classifier (pool/conv/fc/softmax …) run when
    the exit is taken; ``accuracy`` is the exit's modeled top-1 accuracy in
    (0, 1].  On the trunk path the layer is the identity and costs nothing
    (``count_flops() == 0``); the exit-taken path is ``Network.at_exit``.
    """

    kind = "exit"

    def __init__(self, name: str, head: Sequence[Layer], accuracy: float):
        super().__init__(name)
        if not head:
            raise LayerShapeError(f"exit {name!r} needs a non-empty head")
        if not 0.0 < accuracy <= 1.0:
            raise LayerShapeError(
                f"exit {name!r} accuracy must be in (0, 1], got {accuracy}"
            )
        self.head: List[Layer] = list(head)
        self.accuracy = float(accuracy)

    # -- building -------------------------------------------------------------
    def build(self, input_shape: Shape, rng: SeededRng) -> Shape:
        self.input_shape = tuple(input_shape)
        shape = self.input_shape
        for layer in self.head:
            shape = layer.build(shape, rng.child(f"{self.name}/{layer.name}"))
        # Trunk path: identity — the full network never sees the head.
        self.out_shape = self.input_shape
        return self.out_shape

    # -- execution ------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Trunk path: pass through unchanged (aux heads dropped at deploy)."""
        self.check_input(x)
        return x

    # -- accounting -----------------------------------------------------------
    def count_flops(self) -> float:
        return 0.0  # trunk path is free; a taken exit is priced as at_exit

    def param_slots(self) -> List[Slot]:
        """Head leaves' blobs, named ``head/{layer}/{key}``."""
        return qualified_slots([("head", self.head)])

    def inner_layers(self) -> List[Layer]:
        return list(self.head)

    def config(self) -> Dict:
        return {
            "accuracy": self.accuracy,
            "head": [layer.describe() for layer in self.head],
        }
