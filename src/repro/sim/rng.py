"""Seeded randomness helpers.

All stochastic behaviour in the simulator (jitter, loss, synthetic inputs)
flows through :class:`SeededRng` so that every experiment is reproducible
from a single integer seed, and independent subsystems can derive
non-interfering child streams.
"""

from __future__ import annotations

import functools
import random
from typing import Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class SeededRng:
    """A named, seeded random stream with numpy and stdlib views."""

    def __init__(self, seed: int = 0, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        self._mixed = self._mix(seed, name)
        self._py = random.Random(self._mixed)

    @functools.cached_property
    def np(self) -> np.random.Generator:
        """The numpy view, built on first use: most streams (one per link,
        per child subsystem) only ever draw scalars."""
        return np.random.default_rng(self._mixed)

    @staticmethod
    def _mix(seed: int, name: str) -> int:
        # Stable string hash (hash() is salted per-process) folded with seed.
        acc = 1469598103934665603  # FNV-1a offset basis
        for ch in name.encode("utf-8"):
            acc = ((acc ^ ch) * 1099511628211) & ((1 << 64) - 1)
        return (acc ^ (seed * 0x9E3779B97F4A7C15)) & ((1 << 63) - 1)

    def child(self, name: str) -> "SeededRng":
        """Derive an independent stream for a named subsystem."""
        return SeededRng(self.seed, f"{self.name}/{name}")

    # -- convenience wrappers ------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        return self._py.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self._py.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._py.gauss(mu, sigma)

    def randint(self, low: int, high: int) -> int:
        """Inclusive-range integer, like ``random.randint``."""
        return self._py.randint(low, high)

    def random(self) -> float:
        return self._py.random()

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0:
            return False
        if probability >= 1:
            return True
        return self._py.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        return self._py.choice(items)

    def shuffled(self, items: Sequence[T]) -> list:
        result = list(items)
        self._py.shuffle(result)
        return result

    def normal_array(self, shape, scale: float = 1.0) -> np.ndarray:
        return self.np.normal(0.0, scale, size=shape).astype(np.float32)

    def uniform_array(
        self, shape, low: float = 0.0, high: float = 1.0
    ) -> np.ndarray:
        return self.np.uniform(low, high, size=shape).astype(np.float32)

    def image(self, height: int, width: int, channels: int = 3) -> np.ndarray:
        """A synthetic input image in [0, 255], shaped (H, W, C)."""
        return self.np.uniform(0.0, 255.0, size=(height, width, channels)).astype(
            np.float32
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededRng(seed={self.seed}, name={self.name!r})"


def make_rng(seed: Optional[int] = None, name: str = "root") -> SeededRng:
    """Factory used across the code base; defaults to the canonical seed 0."""
    return SeededRng(0 if seed is None else seed, name)
