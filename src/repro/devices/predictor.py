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
an alias for it — prediction error is real and is itself evaluated in an
ablation benchmark.
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
    #: layer output size, for multivariate models (0 = unknown)
    output_bytes: int = 0


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
    def predict_layer(self, kind: str, flops: float, output_bytes: int = 0) -> float:
        """Predicted latency in seconds for one layer execution.

        ``output_bytes`` is accepted (and ignored) so flops-only and
        multivariate predictors are drop-in interchangeable.
        """
        model = self._models.get(kind, self._fallback)
        if model is None:
            raise RuntimeError("predictor has not been fitted")
        return model.predict(flops)

    def predict_forward(self, costs: Iterable) -> float:
        """Predicted latency for a sequence of LayerCost-like objects."""
        return sum(
            self.predict_layer(
                cost.kind, cost.flops, output_bytes=cost.output_elements * 4
            )
            for cost in costs
        )

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted(self._models))


@dataclass(frozen=True)
class _KindModelMV:
    """Per-kind multivariate linear model: t = a*GFLOPs + b*out_MB + c."""

    coef_gflops: float
    coef_out_mb: float
    intercept_s: float

    def predict(self, flops: float, output_bytes: int) -> float:
        return max(
            0.0,
            self.coef_gflops * (flops / 1e9)
            + self.coef_out_mb * (output_bytes / 1e6)
            + self.intercept_s,
        )


class MultivariatePredictor:
    """Neurosurgeon-style predictor with compute *and* memory features.

    Where :class:`LatencyPredictor` regresses latency on FLOPs alone, this
    model adds the layer's output size — the feature that matters on
    memory-bandwidth-bound devices (cheap layers writing huge activations).
    Same interface; fit by per-kind least squares with ridge damping.
    """

    #: ridge damping added to the normal equations' diagonal
    RIDGE = 1e-8

    def __init__(self):
        self._models: Dict[str, _KindModelMV] = {}
        self._fallback: Optional[_KindModelMV] = None

    def fit(self, samples: Iterable[ProfiledSample]) -> "MultivariatePredictor":
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

    def _fit_one(self, samples: Sequence[ProfiledSample]) -> _KindModelMV:
        design = np.array(
            [
                [s.flops / 1e9, s.output_bytes / 1e6, 1.0]
                for s in samples
            ]
        )
        target = np.array([s.seconds for s in samples])
        gram = design.T @ design + self.RIDGE * np.eye(3)
        coef = np.linalg.solve(gram, design.T @ target)
        return _KindModelMV(float(coef[0]), float(coef[1]), float(coef[2]))

    def predict_layer(self, kind: str, flops: float, output_bytes: int = 0) -> float:
        model = self._models.get(kind, self._fallback)
        if model is None:
            raise RuntimeError("predictor has not been fitted")
        return model.predict(flops, output_bytes)

    def predict_forward(self, costs: Iterable) -> float:
        return sum(
            self.predict_layer(
                cost.kind, cost.flops, output_bytes=cost.output_elements * 4
            )
            for cost in costs
        )

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted(self._models))


def profiling_grid(
    kinds: Sequence[str] = ("conv", "pool", "fc", "relu"),
    flops_points: Sequence[float] = (1e7, 1e8, 5e8, 2e9),
    output_element_points: Sequence[int] = (10_000, 100_000, 1_000_000),
):
    """A synthetic profiling workload decoupling compute from output size.

    Neurosurgeon profiles each layer type over a *grid* of configurations,
    not just the layers of one network — that is what lets a regression
    separate compute cost from memory cost (one network's layers tend to
    have collinear FLOPs and activation sizes).
    """
    from repro.nn.cost import LayerCost

    costs = []
    for kind in kinds:
        for flops in flops_points:
            for elements in output_element_points:
                costs.append(
                    LayerCost(
                        name=f"grid/{kind}/{flops:g}/{elements}",
                        kind=kind,
                        flops=flops,
                        params=0,
                        output_shape=(int(elements), 1, 1),
                        spine_index=0,
                    )
                )
    return costs


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
        output_bytes = cost.output_elements * 4
        true_seconds = profile.seconds_for(
            cost.kind, cost.flops, output_bytes=output_bytes
        )
        for _ in range(repetitions):
            observed = true_seconds * (1.0 + rng.gauss(0.0, noise))
            samples.append(
                ProfiledSample(
                    kind=cost.kind,
                    flops=cost.flops,
                    seconds=max(0.0, observed),
                    output_bytes=output_bytes,
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


def prediction_error(predictor, device: Device, costs: Sequence) -> float:
    """Mean relative error of per-layer predictions against ground truth.

    Works with any predictor exposing ``predict_layer(kind, flops,
    output_bytes=...)``.
    """
    errors = []
    for cost in costs:
        truth = device.layer_seconds(cost)
        if truth <= 0:
            continue
        predicted = predictor.predict_layer(
            cost.kind, cost.flops, output_bytes=cost.output_elements * 4
        )
        errors.append(abs(predicted - truth) / truth)
    if not errors:
        return 0.0
    return float(np.mean(errors))
