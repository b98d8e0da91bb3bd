"""Process-wide observability runtime behind a zero-overhead-when-disabled seam.

Mirrors the module-level config-dict pattern of :mod:`repro.lamino.usfft`
(``_FFT``): one ``_STATE`` dict holds the switch, the active
:class:`~repro.obs.config.ObsConfig`, the metrics registry, and the span
collector.  Instrumentation sites call the module functions below
unconditionally; while disabled each call is a dict lookup returning a
shared null object — no locks taken, no registry entries allocated, no
span records produced — so hot paths pay effectively nothing.

Enable by either route:

- ``MLRConfig(obs=ObsConfig(...))`` — the solver calls :func:`configure`,
- ``REPRO_OBS=1`` in the environment — picked up at import time.
"""

from __future__ import annotations

import dataclasses
import os
import threading

from .config import ObsConfig
from .registry import Counter, Gauge, Histogram, MetricsRegistry, log_bucket_edges
from .spans import NULL_SPAN, Span, SpanCollector, current_trace_context

__all__ = [
    "configure",
    "enabled",
    "counter",
    "gauge",
    "histogram",
    "publish_gauges",
    "span",
    "server_span",
    "current_trace_context",
    "registry",
    "snapshot",
    "drain_spans",
    "reset",
]


class _NullCounter:
    """Shared do-nothing counter handed out while observability is off."""

    __slots__ = ()
    kind = "counter"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None


class _NullGauge:
    __slots__ = ()
    kind = "gauge"

    def set(self, value: float) -> None:
        return None


class _NullHistogram:
    __slots__ = ()
    kind = "histogram"

    def observe(self, value: float) -> None:
        return None

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


def _edges_for(cfg: ObsConfig) -> tuple[float, ...]:
    return log_bucket_edges(
        cfg.histogram_min_s, cfg.histogram_max_s, cfg.buckets_per_decade
    )


def _fresh_state(cfg: ObsConfig, enabled_flag: bool) -> dict:
    return {
        "enabled": enabled_flag,
        "config": cfg,
        "registry": MetricsRegistry(default_edges=_edges_for(cfg)),
        "collector": SpanCollector(capacity=cfg.span_buffer),
    }


_ENV_ENABLED = os.environ.get("REPRO_OBS", "") not in ("", "0")

# Swapped atomically as a whole dict by configure()/reset(); readers grab
# one entry per call, so a concurrent reconfigure is safe (they just keep
# using the generation they already saw).
_STATE = _fresh_state(ObsConfig(), _ENV_ENABLED)
_CONFIGURE_LOCK = threading.Lock()


def configure(cfg: ObsConfig | None = None) -> None:
    """Install ``cfg`` as the process-wide observability runtime.

    A fresh registry and span collector are created (sized per ``cfg``);
    previously handed-out metric objects keep working but belong to the
    old generation and no longer appear in :func:`snapshot`.
    """
    global _STATE
    cfg = cfg if cfg is not None else ObsConfig()
    if not isinstance(cfg, ObsConfig):
        raise TypeError(f"expected ObsConfig, got {type(cfg).__name__}")
    with _CONFIGURE_LOCK:
        _STATE = _fresh_state(cfg, cfg.enabled)


def reset() -> None:
    """Back to defaults with the ``REPRO_OBS`` env gate (test helper)."""
    global _STATE
    with _CONFIGURE_LOCK:
        _STATE = _fresh_state(ObsConfig(), _ENV_ENABLED)


def enabled() -> bool:
    return _STATE["enabled"]


def registry() -> MetricsRegistry:
    return _STATE["registry"]


def counter(name: str, **labels) -> Counter:
    state = _STATE
    if not state["enabled"]:
        return _NULL_COUNTER
    return state["registry"].counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    state = _STATE
    if not state["enabled"]:
        return _NULL_GAUGE
    return state["registry"].gauge(name, **labels)


def histogram(name: str, edges: tuple[float, ...] | None = None, **labels) -> Histogram:
    state = _STATE
    if not state["enabled"]:
        return _NULL_HISTOGRAM
    return state["registry"].histogram(name, edges=edges, **labels)


def publish_gauges(prefix: str, stats, **labels) -> None:
    """Set one ``<prefix>_<field>`` gauge per numeric field of the stats
    dataclass ``stats`` (fields holding anything else — nested stats — are
    the caller's to publish under their own labels).

    Gauges, not counters: a stats object is a snapshot-valued total, so
    each publish *sets* the authoritative value — publishing twice is
    idempotent rather than double-counting.  Pass a copy taken outside the
    owner's lock; the registry lock must never nest under it."""
    state = _STATE
    if not state["enabled"]:
        return
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, (int, float)):
            state["registry"].gauge(f"{prefix}_{f.name}", **labels).set(value)


def span(name: str, **attrs):
    """Timed region context manager; a shared no-op while disabled."""
    state = _STATE
    if not state["enabled"]:
        return NULL_SPAN
    return Span(name, attrs, state["collector"])


def server_span(name: str, ctx, **attrs):
    """A span parented under a *remote* trace context.

    ``ctx`` is the optional ``{"tid": ..., "sid": ...}`` dict a request
    frame carried (trace id + the client-side span to parent under).  A
    missing or malformed context — old clients, hostile peers — degrades
    to a plain root :func:`span`; it must never fail a request handler."""
    state = _STATE
    if not state["enabled"]:
        return NULL_SPAN
    remote = None
    if isinstance(ctx, dict):
        tid, sid = ctx.get("tid"), ctx.get("sid")
        if (
            isinstance(tid, int)
            and isinstance(sid, int)
            and not isinstance(tid, bool)
            and not isinstance(sid, bool)
        ):
            remote = (tid, sid)
    return Span(name, attrs, state["collector"], remote=remote)


def snapshot() -> list[dict]:
    """Point-in-time snapshot of every registered metric."""
    return _STATE["registry"].snapshot()


def drain_spans() -> tuple[list[dict], int]:
    """All finished spans so far plus the ring-overflow drop count."""
    return _STATE["collector"].drain()
