"""repro.obs — unified observability for the memo/service/net tiers.

Public surface (the instrumentation verbs the rest of the repo uses)::

    from repro import obs

    obs.counter("memo_chunks_total", op="Fu1D", case="hit").inc()
    obs.gauge("queue_depth", queue="read").set(3)
    obs.histogram("net_client_request_seconds", type="query").observe(dt)
    with obs.span("sweep.Fu1D", chunk=i):
        ...

All of it is free while disabled (the default): enable with
``REPRO_OBS=1`` or ``MLRConfig(obs=ObsConfig(enabled=True))``.  Export
with :func:`to_prometheus` / :func:`dump_jsonl`; inspect dumps with
``python -m repro.obs report``.  The live telemetry plane —
:class:`~repro.obs.http.TelemetryServer` (``/metrics`` / ``/healthz`` /
``/readyz`` / ``/snapshot``) and the memo-tier heat analytics
(:mod:`repro.obs.heat`, ``python -m repro.obs heat``) — rides on the same
registry.  ``http`` stays a lazy submodule import here (it reaches into
:mod:`repro.net` for address parsing, which imports this package back).
"""

from .config import ObsConfig
from .export import dump_jsonl, dump_lines, load_jsonl, to_prometheus
from .registry import Counter, Gauge, Histogram, MetricsRegistry, log_bucket_edges
from .report import build_report, load_report, merge_dumps, render_report
from .runtime import (
    configure,
    counter,
    drain_spans,
    enabled,
    flight_dir,
    flight_dump,
    gauge,
    histogram,
    peek_spans,
    publish_gauges,
    registry,
    reset,
    server_span,
    snapshot,
    span,
    telemetry_server,
)
from .spans import Span, SpanCollector, current_span_id, current_trace_context

__all__ = [
    "ObsConfig",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_bucket_edges",
    "Span",
    "SpanCollector",
    "current_span_id",
    "current_trace_context",
    "configure",
    "enabled",
    "counter",
    "gauge",
    "histogram",
    "publish_gauges",
    "span",
    "server_span",
    "registry",
    "snapshot",
    "drain_spans",
    "peek_spans",
    "flight_dir",
    "flight_dump",
    "telemetry_server",
    "reset",
    "to_prometheus",
    "dump_jsonl",
    "dump_lines",
    "load_jsonl",
    "build_report",
    "load_report",
    "merge_dumps",
    "render_report",
]
