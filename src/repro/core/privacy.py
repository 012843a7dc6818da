"""Privacy analysis of offloaded snapshots (paper §III.B.2).

Three tools:

* :func:`snapshot_exposes_input` — does a snapshot's payload contain the
  user's input image (as an attachment or as serialized tensor text)?
  Full offloading exposes it; partial inference ships only feature data.
* :func:`hill_climb_invert` — the attack the paper cites [17]: reconstruct
  the input from feature data by hill climbing, *given the front model*.
  Withholding the front part of the DNN (pre-sending only the rear) is the
  paper's defense, and :func:`inversion_study` quantifies it by running the
  attack with the true front model vs. a surrogate the attacker would have
  to guess.
* :func:`denaturing_score` — how unrecognizable the feature data is
  relative to the input (correlation-based; higher = more denatured).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.snapshot.capture import Snapshot
from repro.core.snapshot.codegen import render_tensor_text
from repro.nn.model import Model
from repro.sim import SeededRng


# -- exposure -----------------------------------------------------------------

def snapshot_exposes_input(snapshot: Snapshot, input_pixels: np.ndarray) -> bool:
    """True if the snapshot payload contains the input image."""
    flat = np.asarray(input_pixels, dtype=np.float32)
    for attachment in snapshot.attachments.values():
        if attachment.shape == flat.shape and np.array_equal(attachment, flat):
            return True
    if flat.size:
        # Cheap containment probe: the exact serialized text of the first
        # values would appear verbatim if the tensor was text-serialized.
        probe = render_tensor_text(flat.ravel()[: min(16, flat.size)])
        if any(probe in text for text in snapshot.texts):
            return True
    return False


# -- feature inversion ------------------------------------------------------------

@dataclass
class InversionResult:
    """Outcome of a hill-climbing reconstruction attempt."""

    reconstruction: np.ndarray
    feature_loss: float
    initial_feature_loss: float
    input_mse: float
    #: the random starting image, kept so studies can re-score baselines
    initial_candidate: Optional[np.ndarray] = None

    @property
    def loss_reduction(self) -> float:
        """Fraction of the feature-matching loss the attack removed."""
        if self.initial_feature_loss <= 0:
            return 0.0
        return 1.0 - self.feature_loss / self.initial_feature_loss


def _feature_loss(front: Model, candidate: np.ndarray, target_feature: np.ndarray) -> float:
    produced = front.inference(candidate)
    return float(np.mean((produced - target_feature) ** 2))


def hill_climb_invert(
    front: Model,
    target_feature: np.ndarray,
    input_shape,
    iterations: int = 400,
    step: float = 16.0,
    rng: Optional[SeededRng] = None,
    true_input: Optional[np.ndarray] = None,
    value_range=(0.0, 255.0),
) -> InversionResult:
    """Reconstruct an input from feature data via hill climbing [17].

    Starts from a random image and repeatedly perturbs a random patch,
    keeping mutations that bring ``front(candidate)`` closer to the target
    feature.  The attacker needs ``front`` — which is exactly what the
    paper withholds from the server.
    """
    rng = rng or SeededRng(0, "inversion")
    low, high = value_range
    candidate = rng.uniform_array(tuple(input_shape), low, high)
    initial_candidate = candidate.copy()
    loss = _feature_loss(front, candidate, target_feature)
    initial_loss = loss
    channels, height, width = input_shape
    for iteration in range(iterations):
        patch = max(1, min(height, width) // 4)
        y = rng.randint(0, height - patch)
        x = rng.randint(0, width - patch)
        channel = rng.randint(0, channels - 1)
        mutated = candidate.copy()
        noise = rng.normal_array((patch, patch), step)
        mutated[channel, y : y + patch, x : x + patch] = np.clip(
            mutated[channel, y : y + patch, x : x + patch] + noise, low, high
        )
        mutated_loss = _feature_loss(front, mutated, target_feature)
        if mutated_loss < loss:
            candidate, loss = mutated, mutated_loss
    input_mse = (
        float(np.mean((candidate - true_input) ** 2)) if true_input is not None else float("nan")
    )
    return InversionResult(
        reconstruction=candidate,
        feature_loss=loss,
        initial_feature_loss=initial_loss,
        input_mse=input_mse,
        initial_candidate=initial_candidate,
    )


@dataclass
class InversionStudy:
    """Attack quality with vs. without the true front model."""

    with_front: InversionResult
    without_front: InversionResult

    @property
    def defense_effective(self) -> bool:
        """Withholding the front model must cripple the attack."""
        return self.with_front.loss_reduction > 2 * max(
            self.without_front.loss_reduction, 1e-9
        )


def inversion_study(
    front: Model,
    surrogate_front: Model,
    input_image: np.ndarray,
    iterations: int = 400,
    rng: Optional[SeededRng] = None,
) -> InversionStudy:
    """Run the inversion attack with and without the real front model.

    The "without" attacker holds only a surrogate (a same-architecture
    model with unknown parameters — the best it can do when the front part
    was never sent), so its loss is measured against the *true* feature it
    observed, while it optimizes through the surrogate.
    """
    rng = rng or SeededRng(0, "inversion-study")
    true_feature = front.inference(input_image)
    with_front = hill_climb_invert(
        front,
        true_feature,
        input_image.shape,
        iterations=iterations,
        rng=rng.child("with"),
        true_input=input_image,
    )
    # The blind attacker hill-climbs through the surrogate; we then score
    # its reconstruction against the real front model's feature map.
    blind = hill_climb_invert(
        surrogate_front,
        true_feature,
        input_image.shape,
        iterations=iterations,
        rng=rng.child("without"),
        true_input=input_image,
    )
    # Score the blind attacker against the *true* front model: both its
    # starting point and its final reconstruction.  Optimizing through the
    # surrogate should barely move the true loss.
    blind_true_initial = _feature_loss(front, blind.initial_candidate, true_feature)
    blind_true_loss = _feature_loss(front, blind.reconstruction, true_feature)
    without_front = InversionResult(
        reconstruction=blind.reconstruction,
        feature_loss=blind_true_loss,
        initial_feature_loss=blind_true_initial,
        input_mse=blind.input_mse,
        initial_candidate=blind.initial_candidate,
    )
    return InversionStudy(with_front=with_front, without_front=without_front)


# -- denaturing metric ----------------------------------------------------------

def denaturing_score(input_image: np.ndarray, feature: np.ndarray) -> float:
    """How unrecognizable the feature is vs. the input, in [0, 1].

    Computes the best absolute Pearson correlation between the (resampled)
    input intensity map and any feature channel, and returns one minus it.
    1.0 means no feature channel resembles the input at all.
    """
    gray = np.asarray(input_image, dtype=np.float64).mean(axis=0)
    feature = np.asarray(feature, dtype=np.float64)
    if feature.ndim == 1:
        return 1.0
    best = 0.0
    for channel in feature:
        resampled = _resample_like(gray, channel.shape)
        correlation = _pearson(resampled.ravel(), channel.ravel())
        best = max(best, abs(correlation))
    return 1.0 - best


def _resample_like(image: np.ndarray, shape) -> np.ndarray:
    ys = np.linspace(0, image.shape[0] - 1, shape[0]).astype(int)
    xs = np.linspace(0, image.shape[1] - 1, shape[1]).astype(int)
    return image[np.ix_(ys, xs)]


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    if a.std() == 0 or b.std() == 0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])
