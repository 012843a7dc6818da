"""Seeded randomness helpers.

All stochastic behaviour in the simulator (jitter, loss, synthetic inputs)
flows through :class:`SeededRng` so that every experiment is reproducible
from a single integer seed, and independent subsystems can derive
non-interfering child streams.  Array draws are float64, a chunk at a
time, cast into the float32 result: a ``Generator`` stream does not depend
on chunking, so values and stream position equal one whole-array draw plus
``astype(float32)``, without its float64 temporary (77 MB for AgeNet fc6).
"""

from __future__ import annotations

import functools
import random
from typing import Sequence, TypeVar

import numpy as np

T = TypeVar("T")

_CHUNK = 65_536  # float64 values per chunk of an array draw (512 KB)


class SeededRng:
    """A named, seeded random stream with numpy and stdlib views."""

    def __init__(self, seed: int = 0, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        self._mixed = self._mix(seed, name)

    @functools.cached_property
    def _py(self) -> random.Random:
        """The stdlib view, built on first use: a link's stream draws only
        on lossy or jittery profiles."""
        return random.Random(self._mixed)

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
        return self._fill(shape, lambda n: self.np.normal(0.0, scale, size=n))

    def uniform_array(
        self, shape, low: float = 0.0, high: float = 1.0
    ) -> np.ndarray:
        return self._fill(shape, lambda n: self.np.uniform(low, high, size=n))

    def image(self, height: int, width: int, channels: int = 3) -> np.ndarray:
        """A synthetic input image in [0, 255], shaped (H, W, C)."""
        return self.uniform_array((height, width, channels), 0.0, 255.0)

    @staticmethod
    def _fill(shape, draw) -> np.ndarray:
        """float32 ``shape`` filled in C order by ``draw(n)`` (n float64s)."""
        out = np.empty(shape, dtype=np.float32)
        flat = out.reshape(-1)
        for start in range(0, flat.size, _CHUNK):
            flat[start:start + _CHUNK] = draw(min(_CHUNK, flat.size - start))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededRng(seed={self.seed}, name={self.name!r})"
