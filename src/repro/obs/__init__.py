"""repro.obs — unified observability for the memo/service/net tiers.

Public surface (the instrumentation verbs the rest of the repo uses)::

    from repro import obs

    obs.counter("memo_chunks_total", op="Fu1D", case="hit").inc()
    obs.gauge("queue_depth", queue="read").set(3)
    obs.histogram("net_client_request_seconds", type="query").observe(dt)
    with obs.span("sweep.Fu1D", chunk=i):
        ...

All of it is free while disabled (the default): enable with
``REPRO_OBS=1`` or ``MLRConfig(obs=ObsConfig(enabled=True))``.  Telemetry
stays in the process that recorded it until that process writes it out:
:func:`dump_jsonl` is the one file a run leaves, ``python -m repro.obs
report`` reads it, and :func:`to_prometheus` renders the registry as text.
The memo-tier heat analytics (:mod:`repro.obs.heat`, ``python -m repro.obs
heat``) read a snapshot directory or a live daemon over the memo wire.
"""

from .config import ObsConfig
from .export import dump_jsonl, dump_lines, load_jsonl, to_prometheus
from .registry import Counter, Gauge, Histogram, MetricsRegistry, log_bucket_edges
from .report import build_report, load_report, render_report
from .runtime import (
    configure,
    counter,
    drain_spans,
    enabled,
    gauge,
    histogram,
    publish_gauges,
    registry,
    reset,
    server_span,
    snapshot,
    span,
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
    "reset",
    "to_prometheus",
    "dump_jsonl",
    "dump_lines",
    "load_jsonl",
    "build_report",
    "load_report",
    "render_report",
]
