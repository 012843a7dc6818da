"""Observability: metrics registry, span tracing, exporters.

This package is the measurement backbone of the reproduction.  The paper's
entire evaluation is about where time and bytes go (Fig. 6 execution
times, Fig. 7 phase breakdowns, Fig. 8 partial-inference trade-offs);
:mod:`repro.obs` turns those quantities into first-class, queryable data:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  exact histograms on the *virtual* clock, labeled and mergeable across
  runs (``sim.metrics`` on every simulator);
* :class:`~repro.obs.spans.SpanRecorder` — lightweight span tracing
  (``sim.spans``), exportable as Chrome Trace Event JSON;
* :mod:`repro.obs.export` — Prometheus text and JSON exporters.

See ``docs/OBSERVABILITY.md`` for the metric name catalogue.
"""

from repro.obs.export import to_json, to_prometheus_text, write_metrics
from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    announce_registry,
    collect_metrics,
)
from repro.obs.spans import Span, SpanRecorder, spans_to_events, spans_to_trace

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "announce_registry",
    "collect_metrics",
    "spans_to_events",
    "spans_to_trace",
    "to_json",
    "to_prometheus_text",
    "write_metrics",
]
