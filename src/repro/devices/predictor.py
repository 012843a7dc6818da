"""Neurosurgeon-style per-layer latency prediction.

The paper decides partition points using "a prediction model for the DNN
layers, as used in Neurosurgeon [16]".  Neurosurgeon fits, per layer *type*,
a small regression from layer configuration features to measured latency,
then composes per-layer predictions into end-to-end estimates without ever
running the target network.

We reproduce that: :class:`LatencyPredictor` fits one linear model per layer
kind, ``t = a * GFLOPs + b``, by ordinary least squares over profiled
samples.  Samples come from profiling runs on a device (optionally with
measurement noise), so the predictor is an honest model *of* the device, not
an alias for it — prediction error is real: :func:`prediction_error`
measures it per layer, and the partition optimizer's end-to-end estimates
are checked against measured offloads (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.device import Device
from repro.devices.profiles import DeviceProfile
from repro.sim import SeededRng


@dataclass(frozen=True)
class ProfiledSample:
    """One observed (layer execution, latency) pair."""

    kind: str
    flops: float
    seconds: float


@dataclass(frozen=True)
class _KindModel:
    slope_s_per_gflop: float
    intercept_s: float

    def predict(self, flops: float) -> float:
        return max(0.0, self.slope_s_per_gflop * (flops / 1e9) + self.intercept_s)


class LatencyPredictor:
    """Per-layer-kind linear latency models fit by least squares."""

    def __init__(self) -> None:
        self._models: Dict[str, _KindModel] = {}
        self._fallback: Optional[_KindModel] = None

    # -- fitting ---------------------------------------------------------------
    def fit(self, samples: Iterable[ProfiledSample]) -> "LatencyPredictor":
        """Fit one model per layer kind present in ``samples``."""
        by_kind: Dict[str, List[ProfiledSample]] = {}
        all_samples: List[ProfiledSample] = []
        for sample in samples:
            by_kind.setdefault(sample.kind, []).append(sample)
            all_samples.append(sample)
        if not all_samples:
            raise ValueError("cannot fit a latency predictor on zero samples")
        for kind, kind_samples in by_kind.items():
            self._models[kind] = self._fit_one(kind_samples)
        self._fallback = self._fit_one(all_samples)
        return self

    @staticmethod
    def _fit_one(samples: Sequence[ProfiledSample]) -> _KindModel:
        gflops = np.array([sample.flops / 1e9 for sample in samples])
        seconds = np.array([sample.seconds for sample in samples])
        if len(samples) == 1 or np.ptp(gflops) == 0:
            # Degenerate: a single operating point; model it as pure rate.
            point = samples[0]
            if point.flops > 0:
                return _KindModel(point.seconds / (point.flops / 1e9), 0.0)
            return _KindModel(0.0, point.seconds)
        design = np.vstack([gflops, np.ones_like(gflops)]).T
        (slope, intercept), *_ = np.linalg.lstsq(design, seconds, rcond=None)
        return _KindModel(float(slope), float(intercept))

    # -- prediction ---------------------------------------------------------------
    def predict_layer(self, kind: str, flops: float) -> float:
        """Predicted latency in seconds for one layer execution."""
        model = self._models.get(kind, self._fallback)
        if model is None:
            raise RuntimeError("predictor has not been fitted")
        return model.predict(flops)

    def predict_forward(self, costs: Iterable) -> float:
        """Predicted latency for a sequence of LayerCost-like objects."""
        return sum(self.predict_layer(cost.kind, cost.flops) for cost in costs)

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted(self._models))


def profile_device(
    profile: DeviceProfile,
    costs: Iterable,
    repetitions: int = 3,
    noise: float = 0.03,
    rng: Optional[SeededRng] = None,
) -> List[ProfiledSample]:
    """Generate profiling samples by "running" layers on a device profile.

    This mimics the offline profiling stage of Neurosurgeon: each layer is
    executed ``repetitions`` times and the observed latency carries
    multiplicative measurement noise of relative magnitude ``noise``.
    """
    rng = rng or SeededRng(0, f"profiling/{profile.name}")
    samples: List[ProfiledSample] = []
    for cost in costs:
        true_seconds = profile.seconds_for(cost.kind, cost.flops)
        for _ in range(repetitions):
            observed = true_seconds * (1.0 + rng.gauss(0.0, noise))
            samples.append(
                ProfiledSample(
                    kind=cost.kind, flops=cost.flops, seconds=max(0.0, observed)
                )
            )
    return samples


def fit_predictor_for(
    profile: DeviceProfile,
    costs: Iterable,
    repetitions: int = 3,
    noise: float = 0.03,
    rng: Optional[SeededRng] = None,
) -> LatencyPredictor:
    """Profile a device over ``costs`` and fit a predictor in one step."""
    samples = profile_device(profile, costs, repetitions=repetitions, noise=noise, rng=rng)
    return LatencyPredictor().fit(samples)


def prediction_error(
    predictor: LatencyPredictor, device: Device, costs: Sequence
) -> float:
    """Mean relative error of per-layer predictions against ground truth."""
    errors = []
    for cost in costs:
        truth = device.layer_seconds(cost)
        if truth <= 0:
            continue
        predicted = predictor.predict_layer(cost.kind, cost.flops)
        errors.append(abs(predicted - truth) / truth)
    if not errors:
        return 0.0
    return float(np.mean(errors))
