"""Registry exporters: Prometheus text exposition and JSON.

``to_prometheus_text`` renders a :class:`~repro.obs.metrics.MetricsRegistry`
in the Prometheus text exposition format (``# HELP`` / ``# TYPE`` headers,
one ``name{labels} value`` sample per line; histograms as cumulative
``_bucket`` / ``_sum`` / ``_count`` series).  The tests' parser
(``tests/prometheus.py``) reads it back, so the export is checked to
round-trip without a real Prometheus server.

``to_json`` / ``write_metrics`` serialize the registry snapshot; the file
extension picks the format (``.json`` vs anything else → Prometheus text).
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence, Tuple

from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    Histogram,
    MetricsRegistry,
)

#: default histogram bucket boundaries (seconds-flavoured, Prometheus style)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Sequence[Tuple[str, str]], extra: str = "") -> str:
    parts = [f'{key}="{_escape(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def to_prometheus_text(
    registry: MetricsRegistry, buckets: Sequence[float] = DEFAULT_BUCKETS
) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    # the registry iterates in (name, labels) order, so one pass groups
    # every family's series already sorted
    series: Dict[str, List] = {}
    for metric in registry:
        series.setdefault(metric.name, []).append(metric)
    for name, kind in sorted(registry.families().items()):
        help_text = registry.help_for(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for metric in series.get(name, ()):
            labels = metric.labels
            if kind == HISTOGRAM:
                counts = metric.bucket_counts(buckets)
                for bound, count in zip(buckets, counts):
                    le = _format_labels(labels, f'le="{_format_value(bound)}"')
                    lines.append(f"{name}_bucket{le} {count}")
                inf = _format_labels(labels, 'le="+Inf"')
                lines.append(f"{name}_bucket{inf} {metric.count}")
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(metric.sum)}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {metric.count}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} {_format_value(metric.value)}"
                )
    return "\n".join(lines) + "\n"


def to_json(registry: MetricsRegistry, indent: int = 1) -> str:
    """The registry snapshot as a JSON document."""
    return json.dumps({"metrics": registry.snapshot()}, indent=indent)


def write_metrics(path: str, registry: MetricsRegistry) -> str:
    """Write the registry to ``path``; the extension picks the format."""
    if path.endswith(".json"):
        text = to_json(registry)
    else:
        text = to_prometheus_text(registry)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path
