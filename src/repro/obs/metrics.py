"""Sim-clock-aware metrics: counters, gauges, histograms, labeled series.

A :class:`MetricsRegistry` is the measurable surface of one simulation run.
Every :class:`~repro.sim.kernel.Simulator` owns one (``sim.metrics``) and the
instrumented subsystems — the event loop, links, devices, the edge server,
the client agent, sessions — record into it as virtual time advances:

>>> registry = MetricsRegistry()
>>> registry.counter("requests_total", server="edge").inc()
>>> registry.value("requests_total", server="edge")
1.0

Three metric kinds, modelled on Prometheus:

:class:`Counter`
    a monotonically increasing total (events dispatched, bytes sent),
:class:`Gauge`
    a value that goes up and down (sessions cached, queue depth),
:class:`Histogram`
    a distribution of observations (phase durations, queue waits) with
    exact quantiles and lossless merging.

Series are *labeled*: ``counter("net_bytes_sent_total", link="a->b")`` and
the same name with ``link="b->a"`` are distinct series in one family.
Registries from independent runs merge losslessly
(:meth:`MetricsRegistry.merge`), which is how a campaign aggregates the
telemetry of every testbed it builds; :func:`collect_metrics` captures the
registries of all simulators created inside a ``with`` block.

Timers use the registry's *clock* — the owning simulator's virtual clock,
never wall time — so every duration metric is deterministic under a fixed
seed.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: metric kinds, mirroring the Prometheus exposition types
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


class MetricsError(RuntimeError):
    """Raised on inconsistent metric registration (name/kind conflicts)."""


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    kind = COUNTER

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name} cannot decrease ({amount!r})")
        self.value += amount

    def merge_from(self, other: "Counter") -> None:
        self.value += other.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}{dict(self.labels)}, {self.value})"


class Gauge:
    """A value that can go up and down."""

    kind = GAUGE

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def merge_from(self, other: "Gauge") -> None:
        # Gauges describe instantaneous state; merging runs sums them
        # (e.g. total cached sessions across servers).
        self.value += other.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}{dict(self.labels)}, {self.value})"


class Histogram:
    """An exact distribution of observations.

    Observations are kept losslessly (simulation runs are bounded, and the
    tests need exact quantiles), so ``merge`` is concatenation and
    ``quantile`` is the nearest-rank statistic on the sorted sample —
    ``quantile(0.0)`` is the minimum and ``quantile(1.0)`` the maximum.
    Prometheus-style cumulative buckets are derived at export time.
    """

    kind = HISTOGRAM

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._sorted: List[float] = []
        self.sum = 0.0

    def observe(self, value: float) -> None:
        bisect.insort(self._sorted, float(value))
        self.sum += value

    @property
    def count(self) -> int:
        return len(self._sorted)

    @property
    def observations(self) -> List[float]:
        """All observations, sorted ascending."""
        return list(self._sorted)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile; raises on an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q!r}")
        if not self._sorted:
            raise MetricsError(f"histogram {self.name} has no observations")
        rank = min(len(self._sorted) - 1, int(q * len(self._sorted)))
        return self._sorted[rank]

    def mean(self) -> float:
        return self.sum / len(self._sorted) if self._sorted else 0.0

    def bucket_counts(self, boundaries: Sequence[float]) -> List[int]:
        """Cumulative counts of observations <= each boundary."""
        return [bisect.bisect_right(self._sorted, bound) for bound in boundaries]

    def merge_from(self, other: "Histogram") -> None:
        # Two sorted runs: the stable sort merges them in one linear pass,
        # and equal values (-0.0 / 0.0 export differently) keep ours first.
        self._sorted = sorted(self._sorted + other._sorted)
        self.sum += other.sum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram({self.name}{dict(self.labels)}, "
            f"n={self.count}, sum={self.sum:.6g})"
        )


_METRIC_TYPES = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram}


class MetricsRegistry:
    """Labeled metric families on a (virtual) clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time in seconds.
        Instrumented simulators pass their virtual clock; the default
        always returns ``0.0`` so a registry never touches wall time.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self._families: Dict[str, str] = {}  # name -> kind
        self._help: Dict[str, str] = {}
        self._metrics: Dict[Tuple[str, LabelKey], Any] = {}

    # -- registration -------------------------------------------------------
    def _get_or_create(self, kind: str, name: str, help: str, labels: Dict) -> Any:
        registered = self._families.get(name)
        if registered is None:
            self._families[name] = kind
            if help:
                self._help[name] = help
        elif registered != kind:
            raise MetricsError(
                f"metric {name!r} already registered as {registered}, not {kind}"
            )
        elif help and name not in self._help:
            self._help[name] = help
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = _METRIC_TYPES[kind](name, key[1])
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get_or_create(COUNTER, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get_or_create(GAUGE, name, help, labels)

    def histogram(self, name: str, help: str = "", **labels: Any) -> Histogram:
        return self._get_or_create(HISTOGRAM, name, help, labels)

    @contextmanager
    def timer(self, name: str, help: str = "", **labels: Any):
        """Observe the clock duration of a ``with`` block into a histogram."""
        histogram = self.histogram(name, help=help, **labels)
        started = self.clock()
        yield histogram
        histogram.observe(self.clock() - started)

    # -- reading ------------------------------------------------------------
    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The metric for exact name+labels, or None if never touched."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, **labels: Any) -> float:
        """Counter/gauge value (0.0 if absent); histogram sum."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            return metric.sum
        return metric.value

    def series(self, name: str) -> List[Any]:
        """Every labeled series of one family."""
        family = [(key, m) for key, m in self._metrics.items() if key[0] == name]
        return [m for _, m in sorted(family)]

    def families(self) -> Dict[str, str]:
        """Mapping of family name -> kind."""
        return dict(self._families)

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    def __iter__(self) -> Iterator[Any]:
        """All metrics, ordered by (name, labels) for stable exports."""
        return iter(metric for _, metric in sorted(self._metrics.items()))

    def __len__(self) -> int:
        return len(self._metrics)

    # -- aggregation --------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one (lossless); returns self."""
        for name, kind in other._families.items():
            registered = self._families.setdefault(name, kind)
            if registered != kind:
                raise MetricsError(
                    f"cannot merge metric {name!r}: {registered} vs {kind}"
                )
            if name in other._help and name not in self._help:
                self._help[name] = other._help[name]
        for (name, labels), metric in other._metrics.items():
            mine = self._metrics.get((name, labels))
            if mine is None:
                mine = _METRIC_TYPES[metric.kind](name, labels)
                self._metrics[(name, labels)] = mine
            mine.merge_from(metric)
        return self

    @classmethod
    def merged(cls, registries: Sequence["MetricsRegistry"]) -> "MetricsRegistry":
        """A fresh registry holding the sum of all the given ones."""
        result = cls()
        for registry in registries:
            result.merge(registry)
        return result

    def snapshot(self) -> Dict[str, Any]:
        """A plain-data dump (the JSON exporter's document body)."""
        families: Dict[str, Any] = {}
        for metric in self:
            family = families.setdefault(
                metric.name,
                {
                    "kind": metric.kind,
                    "help": self.help_for(metric.name),
                    "series": [],
                },
            )
            entry: Dict[str, Any] = {"labels": dict(metric.labels)}
            if isinstance(metric, Histogram):
                entry.update(
                    count=metric.count,
                    sum=metric.sum,
                    min=metric.quantile(0.0) if metric.count else None,
                    max=metric.quantile(1.0) if metric.count else None,
                    mean=metric.mean(),
                    observations=metric.observations,
                )
            else:
                entry["value"] = metric.value
            family["series"].append(entry)
        return families


# -- cross-run collection ----------------------------------------------------
#
# `collect_metrics()` captures every registry created while its block is
# active (each Simulator builds one in __init__).  Collectors nest: an
# inner campaign and an outer CLI `--metrics-out` both see the same runs.

_collector_stack: List[List[MetricsRegistry]] = []


def announce_registry(registry: MetricsRegistry) -> None:
    """Offer a newly created registry to every active collector."""
    for bucket in _collector_stack:
        bucket.append(registry)


@contextmanager
def collect_metrics() -> Iterator[List[MetricsRegistry]]:
    """Collect the registries of all simulators created in this block.

    >>> with collect_metrics() as registries:
    ...     pass  # build simulators, run sessions ...
    >>> merged = MetricsRegistry.merged(registries)

    Registries arrive in creation order, which the fixed experiment seeds
    make deterministic — so the merge, and every export of it, is too.
    """
    bucket: List[MetricsRegistry] = []
    _collector_stack.append(bucket)
    try:
        yield bucket
    finally:
        # pop, not remove(bucket): an enclosing collector that has seen the
        # same registries is an equal list, and remove() compares by value
        _collector_stack.pop()
