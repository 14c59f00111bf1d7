"""Observability: spans, metrics, exporters, and the HTTP endpoint.

A zero-dependency leaf layer (it imports nothing from the rest of the
package — enforced by ``tools/check_layers.py``) that every other layer
emits into:

* :mod:`repro.obs.spans` — the tracing side: a thread-safe
  :class:`SpanCollector` (no-op by default) that the pipeline stages,
  the simulated GPU, and the service workers record into; ``repro
  trace`` renders the tree as a live Figure 4.
* :mod:`repro.obs.metrics` — counters/gauges/histograms in a
  :class:`MetricsRegistry` that also absorbs the pre-existing counter
  modules through pull-model sources (:mod:`repro.obs.sources`).
* :mod:`repro.obs.export` — Prometheus text format + JSON renderers
  and the parser the round-trip tests use.
* :mod:`repro.obs.http` — ``/metrics`` + ``/healthz`` on a stdlib
  daemon-thread HTTP server (``repro serve --metrics-port``).

See DESIGN.md §11 for the span taxonomy and the overhead budget.
"""

from .export import parse_prometheus, to_json, to_prometheus
from .http import MetricsServer
from .metrics import (Counter, Gauge, Histogram, HistogramValue,
                      MetricsRegistry, Sample)
from .sources import (engine_report_samples, perf_counter_samples,
                      query_metrics_samples, register_engine_reports,
                      register_perf_counters, register_query_metrics,
                      register_service_metrics, service_metrics_samples)
from .spans import (NullCollector, Span, SpanCollector, aggregate,
                    collecting, collector, render_tree, set_collector,
                    stage_shares)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricsRegistry",
    "MetricsServer",
    "NullCollector",
    "Sample",
    "Span",
    "SpanCollector",
    "aggregate",
    "collecting",
    "collector",
    "engine_report_samples",
    "parse_prometheus",
    "perf_counter_samples",
    "query_metrics_samples",
    "register_engine_reports",
    "register_query_metrics",
    "register_perf_counters",
    "register_service_metrics",
    "render_tree",
    "service_metrics_samples",
    "set_collector",
    "stage_shares",
    "to_json",
    "to_prometheus",
]
