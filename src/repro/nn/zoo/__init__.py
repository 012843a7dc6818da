"""The benchmark model zoo.

Three image-recognition models, faithful to the architectures the paper
benchmarks with CaffeJS:

* :func:`googlenet` — GoogLeNet / Inception-v1 (Szegedy et al., 2015),
  1000-way ImageNet classifier, ~7.0 M parameters → ~27 MiB model file.
* :func:`agenet` — the Levi & Hassner (2015) age classifier (8 classes),
  ~11.4 M parameters → ~44 MiB.
* :func:`gendernet` — the same backbone with a 2-way gender head, ~44 MiB.

Parameters are randomly initialized (He/Xavier): trained weights do not
affect any quantity the paper measures (times and sizes depend only on the
architecture), and shipping real weights is impossible offline anyway.

:func:`smallnet` / :func:`tinynet` are small synthetic CNNs used by tests
and examples where full-scale models would be wastefully slow.

:func:`smallnet_exits` / :func:`googlenet_exits` are multi-exit variants
(auxiliary classifier heads with modeled top-1 accuracies) for the joint
(split, exit) deadline optimizer; see ``docs/EXITS.md``.
"""

from typing import Callable, Dict

from repro.nn.model import Model
from repro.nn.zoo.googlenet import googlenet
from repro.nn.zoo.agenet import agenet, gendernet
from repro.nn.zoo.exits import googlenet_exits, smallnet_exits
from repro.nn.zoo.resnetlike import resnet_mini
from repro.nn.zoo.smallnet import smallnet, tinynet

BUILDERS: Dict[str, Callable[..., Model]] = {
    "googlenet": googlenet,
    "googlenet_exits": googlenet_exits,
    "agenet": agenet,
    "gendernet": gendernet,
    "resnet-mini": resnet_mini,
    "smallnet": smallnet,
    "smallnet_exits": smallnet_exits,
    "tinynet": tinynet,
}

#: the paper's three benchmark apps, in presentation order
PAPER_MODELS = ("googlenet", "agenet", "gendernet")

#: the multi-exit variants, in sweep order
EXIT_MODELS = ("smallnet_exits", "googlenet_exits")


def build_model(name: str, seed: int = 0) -> Model:
    """Build a zoo model by name."""
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(BUILDERS)}"
        ) from None
    return builder(seed=seed)


__all__ = [
    "BUILDERS",
    "EXIT_MODELS",
    "PAPER_MODELS",
    "agenet",
    "build_model",
    "gendernet",
    "googlenet",
    "googlenet_exits",
    "resnet_mini",
    "smallnet",
    "smallnet_exits",
    "tinynet",
]
