"""Registry exporters: Prometheus text exposition and JSON.

``to_prometheus_text`` renders a :class:`~repro.obs.metrics.MetricsRegistry`
in the Prometheus text exposition format (``# HELP`` / ``# TYPE`` headers,
one ``name{labels} value`` sample per line; histograms as cumulative
``_bucket`` / ``_sum`` / ``_count`` series).  ``parse_prometheus_text``
reads that format back into plain data so tests can assert the export
round-trips and smoke scripts can validate a scrape file without a real
Prometheus server.

``to_json`` / ``write_metrics`` serialize the registry snapshot; the file
extension picks the format (``.json`` vs anything else → Prometheus text).
"""

from __future__ import annotations

import json
import math
import re
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


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> Dict:
    """Parse a Prometheus exposition into ``{"types": ..., "samples": ...}``.

    ``types`` maps family name -> declared kind; ``samples`` maps
    ``(sample_name, (sorted label pairs))`` -> float value.  Malformed
    sample lines raise ``ValueError`` — this parser is the smoke test for
    the exporter, so silent tolerance would defeat its purpose.
    """
    types: Dict[str, str] = {}
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        labels = tuple(
            sorted(
                (key, value.replace(r"\"", '"').replace(r"\\", "\\"))
                for key, value in _LABEL_RE.findall(match.group("labels") or "")
            )
        )
        raw = match.group("value")
        value = math.inf if raw == "+Inf" else float(raw)
        samples[(match.group("name"), labels)] = value
    return {"types": types, "samples": samples}


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
