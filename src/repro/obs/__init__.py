"""repro.obs — unified observability: metrics, tracing, logs, SLOs, profiling.

The telemetry substrate threaded through every layer of the stack
(columnar kernels → execution core → serving engine → service),
and — since the distributed v2 — across the process boundary:

* :mod:`~repro.obs.metrics` — a low-overhead registry of named counters,
  gauges, and fixed-bucket histograms with label support, histogram
  exemplars linking buckets to sampled trace ids, and a global enable
  switch;
* :mod:`~repro.obs.trace` — sampled per-query stage waterfalls
  (:class:`Tracer` / :class:`QueryTrace`), the thread-active-trace hook
  deep layers record into, the bounded :class:`SlowQueryLog`, and
  :class:`TraceContext` — the ``traceparent``-style wire codec that lets
  one head-sampled trace span client → server → engine → core;
* :mod:`~repro.obs.logging` — structured JSON-lines event logging with
  trace/request-key correlation and per-logger token-bucket rate limits;
* :mod:`~repro.obs.slo` — declarative latency/error objectives evaluated
  as multi-window burn rates (5 m / 1 h) with ok→warn→page alert states;
* :mod:`~repro.obs.profile` — a continuous sampling wall-clock profiler
  emitting flamegraph-compatible collapsed stacks;
* :mod:`~repro.obs.export` — Prometheus text exposition (v0.0.4, with
  OpenMetrics-style exemplar comments) and the :func:`dump` snapshot API
  for offline/benchmark use.

Quickstart
----------
>>> from repro import obs
>>> qps = obs.get_registry().counter("my_queries_total", "Queries served")
>>> qps.inc()
>>> obs.dump()["my_queries_total"]["samples"][0]["value"]
1.0
>>> print(obs.prometheus_text().splitlines()[0])  # doctest: +SKIP
# HELP my_queries_total Queries served
"""

from typing import Dict, Optional

from repro.obs.export import prometheus_text, snapshot
from repro.obs.logging import EventLog, StructuredLogger, get_event_log, get_logger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_enabled,
)
from repro.obs.profile import SamplingProfiler
from repro.obs.slo import SLOEngine, SLOTarget, error_rate_slo, latency_slo
from repro.obs.trace import (
    QueryTrace,
    SlowQueryLog,
    Span,
    TraceContext,
    Tracer,
    activated,
    active_trace,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "get_registry",
    "set_enabled",
    "QueryTrace",
    "SlowQueryLog",
    "Span",
    "TraceContext",
    "Tracer",
    "activated",
    "active_trace",
    "new_trace_id",
    "new_span_id",
    "EventLog",
    "StructuredLogger",
    "get_event_log",
    "get_logger",
    "SLOEngine",
    "SLOTarget",
    "latency_slo",
    "error_rate_slo",
    "SamplingProfiler",
    "prometheus_text",
    "snapshot",
    "dump",
    "register_build_info",
    "build_info",
]

#: Build/runtime identity labels, filled in by :func:`register_build_info`.
_BUILD_INFO: Dict[str, str] = {}


def register_build_info(version: str, kernel_backend: str) -> Dict[str, str]:
    """Register the ``repro_build_info`` gauge (value always 1, info style).

    Called once from :mod:`repro`'s package import with the resolved
    library version and kernel backend; the labels identify *what build*
    a scrape came from, so dashboards can split any regression by
    version/backend/python.
    """
    import platform

    info = {
        "version": str(version),
        "python_version": platform.python_version(),
        "kernel_backend": str(kernel_backend),
    }
    get_registry().gauge(
        "repro_build_info",
        "Build/runtime identity of this process (value is always 1)",
        ("version", "python_version", "kernel_backend"),
    ).labels(**info).set(1.0)
    _BUILD_INFO.clear()
    _BUILD_INFO.update(info)
    return info


def build_info() -> Dict[str, str]:
    """The labels registered by :func:`register_build_info` (may be empty)."""
    return dict(_BUILD_INFO)


def dump(registry: Optional[MetricsRegistry] = None):
    """Snapshot the (default) registry as a plain JSON-able dict.

    The offline/benchmark API: one call returns every counter, gauge, and
    histogram the instrumented layers recorded so far — no server, no
    scraper.  See :func:`repro.obs.export.snapshot` for the shape.
    """
    return snapshot(registry)
