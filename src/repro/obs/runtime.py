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
import itertools
import json
import logging
import os
import threading
import time

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
    "peek_spans",
    "flight_dir",
    "flight_dump",
    "telemetry_server",
    "reset",
]

log = logging.getLogger("repro.obs")


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


def _env_http_port() -> int | None:
    raw = os.environ.get("REPRO_OBS_HTTP", "")
    if not raw:
        return None
    try:
        port = int(raw)
    except ValueError:
        log.warning("REPRO_OBS_HTTP=%r is not a port number — ignored", raw)
        return None
    if not (0 <= port <= 65535):
        log.warning("REPRO_OBS_HTTP=%d out of range — ignored", port)
        return None
    return port


_ENV_HTTP_PORT = _env_http_port()

# REPRO_FLIGHT_DIR alone also enables the runtime: a flight recorder with
# nothing in its rings would dump empty evidence, which defeats its point.
# So does REPRO_OBS_HTTP: a telemetry endpoint over an empty registry would
# be pointless.
_ENV_ENABLED = (
    os.environ.get("REPRO_OBS", "") not in ("", "0")
    or bool(os.environ.get("REPRO_FLIGHT_DIR"))
    or _ENV_HTTP_PORT is not None
)


def _env_config() -> ObsConfig:
    """The default config the env gate implies (what :func:`reset` restores)."""
    return ObsConfig(http_port=_ENV_HTTP_PORT)


# Swapped atomically as a whole dict by configure()/reset(); readers grab
# one entry per call, so a concurrent reconfigure is safe (they just keep
# using the generation they already saw).
_STATE = _fresh_state(_env_config(), _ENV_ENABLED)
_CONFIGURE_LOCK = threading.Lock()

# The sidecar owned by the active configuration: the HTTP telemetry
# endpoint.  Started/stopped under _CONFIGURE_LOCK whenever the runtime
# generation changes; read lock-free.
_HTTP = None


def _restart_sidecars_locked(state: dict) -> None:
    """Stop the old generation's HTTP server, start the new config's (if
    any).  Caller holds ``_CONFIGURE_LOCK``."""
    global _HTTP
    if _HTTP is not None:
        try:
            _HTTP.close()
        except OSError as exc:
            log.warning("telemetry server close failed: %s", exc)
        _HTTP = None
    cfg: ObsConfig = state["config"]
    if not state["enabled"]:
        return
    if cfg.http_port is not None:
        # local import: http imports this module at load time, so the
        # reverse edge must stay function-scoped
        from .http import TelemetryServer

        _HTTP = TelemetryServer(
            (cfg.http_host, cfg.http_port), name="obs-http"
        )
        log.info("telemetry endpoints at %s", _HTTP.url)


def configure(cfg: ObsConfig | None = None) -> None:
    """Install ``cfg`` as the process-wide observability runtime.

    A fresh registry and span collector are created (sized per ``cfg``);
    previously handed-out metric objects keep working but belong to the
    old generation and no longer appear in :func:`snapshot`.  The config's
    HTTP telemetry server is (re)started to match; the previous
    generation's is stopped.
    """
    global _STATE
    cfg = cfg if cfg is not None else ObsConfig()
    if not isinstance(cfg, ObsConfig):
        raise TypeError(f"expected ObsConfig, got {type(cfg).__name__}")
    with _CONFIGURE_LOCK:
        _STATE = _fresh_state(cfg, cfg.enabled)
        _restart_sidecars_locked(_STATE)


def reset() -> None:
    """Back to defaults with the ``REPRO_OBS`` env gate (test helper)."""
    global _STATE
    with _CONFIGURE_LOCK:
        _STATE = _fresh_state(_env_config(), _ENV_ENABLED)
        _restart_sidecars_locked(_STATE)


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


def peek_spans() -> tuple[list[dict], int]:
    """Non-destructive view of the span rings (the flight recorder's read)."""
    return _STATE["collector"].peek()


def telemetry_server():
    """The runtime-owned :class:`~repro.obs.http.TelemetryServer` (the
    ``ObsConfig(http_port=...)`` / ``REPRO_OBS_HTTP`` one), or ``None``."""
    return _HTTP


# -- flight recorder ------------------------------------------------------------------------
#
# The span rings double as a black-box flight recorder: always on while
# observability is enabled, bounded, overwriting oldest-first.  On a fault
# (job failure, snapshot quarantine, circuit-breaker open) flight_dump()
# writes the recent spans plus a full metrics snapshot to a JSONL artifact
# — the same format `python -m repro.obs report` reads — so a chaos-suite
# failure ships its own evidence.

_FLIGHT_SEQ = itertools.count(1)


def flight_dir() -> str | None:
    """Where flight dumps go: ``ObsConfig.flight_dir`` if set, else the
    ``REPRO_FLIGHT_DIR`` environment variable; ``None`` (no recorder)
    while observability is disabled or neither is configured."""
    state = _STATE
    if not state["enabled"]:
        return None
    return state["config"].flight_dir or os.environ.get("REPRO_FLIGHT_DIR") or None


def flight_dump(reason: str, **attrs) -> str | None:
    """Dump the black box: recent spans (peeked, not drained) plus a full
    metrics snapshot, as ``flight-<reason>-<pid>-<seq>.jsonl`` under
    :func:`flight_dir`.  Returns the artifact path, or ``None`` when the
    recorder is off.  Never raises — this runs on fault paths, and a full
    disk must not break the failure handling that called it."""
    out_dir = flight_dir()
    if out_dir is None:
        return None
    state = _STATE
    # local import: export imports this module at load time, so the
    # reverse edge must stay function-scoped
    from .export import dump_lines

    spans, dropped = state["collector"].peek()
    try:
        lines = dump_lines(state["registry"].snapshot(), spans, dropped)
        meta = json.loads(lines[0])
        meta["flight"] = {"reason": reason, "attrs": attrs, "unix": time.time()}
        lines[0] = json.dumps(meta, sort_keys=True, default=str)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(
            out_dir, f"flight-{reason}-{os.getpid()}-{next(_FLIGHT_SEQ)}.jsonl"
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except (OSError, TypeError, ValueError) as exc:
        log.warning("flight recorder: dump for %r failed: %s", reason, exc)
        return None
    counter("flight_dumps_total", reason=reason).inc()
    log.warning(
        "flight recorder: %s — %d spans + %d metrics dumped to %s",
        reason, len(spans), len(lines) - len(spans) - 1, path,
    )
    return path


# the zero-code env route (REPRO_OBS_HTTP) starts its sidecar at import,
# mirroring how REPRO_OBS enables the runtime; a failure here degrades to
# no sidecar, never a broken import
if _ENV_HTTP_PORT is not None:
    try:
        with _CONFIGURE_LOCK:
            _restart_sidecars_locked(_STATE)
    except Exception as exc:  # noqa: BLE001 — import-time side effect
        log.warning("env-configured telemetry server failed to start: %s", exc)
