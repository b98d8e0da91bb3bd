"""Live telemetry plane: a stdlib-only threaded HTTP scrape/probe server.

:class:`TelemetryServer` turns the pull-after-the-fact observability
surface (JSONL dumps) into the live endpoints a long-running deployment
needs — and is the only way telemetry leaves a memo daemon:

- ``GET /metrics`` — the process's metrics registry in Prometheus text
  exposition format (via :func:`~repro.obs.export.to_prometheus`), plus
  any entries contributed by the attached component's *collect hooks*
  (e.g. the memo daemon's traffic counters and per-entry heat histograms),
- ``GET /healthz`` — liveness: 200 whenever the server answers at all,
- ``GET /readyz`` — readiness: 200 only while every registered probe
  passes (daemon accepting / scheduler accepting and not saturated), 503
  with a JSON body naming the failing probe otherwise,
- ``GET /snapshot`` — the full JSON observability view: registry
  snapshot and a non-destructive span-ring peek — the same shape
  :func:`~repro.obs.export.load_jsonl` produces, so ``build_report``
  consumes it directly (this is what ``python -m repro.obs report
  HOST:PORT`` reads).

Attachment points: ``MemoServerDaemon(telemetry_port=...)`` /
``--telemetry-port``, ``ServiceConfig(telemetry_port=...)``, and
``ObsConfig(http_port=...)`` / ``REPRO_OBS_HTTP`` for standalone solver
runs (the :mod:`repro.obs.runtime` owns that last lifecycle).

The bind address goes through :func:`repro.net.wire.parse_address`, so a
bare-IPv6 literal or a multi-colon typo is rejected with the same message
the memo daemon gives.  Scrapes are served by daemon threads and never
touch hot-path state except through the same published-gauge seam every
exporter uses; a collect/readiness hook that raises marks the scrape
degraded (counted, logged) instead of failing it.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import runtime

__all__ = ["TelemetryServer"]

log = logging.getLogger("repro.obs.http")


class TelemetryServer:
    """Threaded HTTP server exposing /metrics, /healthz, /readyz, /snapshot.

    ``address`` is anything :func:`~repro.net.wire.parse_address` accepts
    (``"host:port"`` or a ``(host, port)`` pair); port 0 binds ephemerally
    — read :attr:`address` / :attr:`url` after construction.

    ``collect`` hooks run on every /metrics and /snapshot request; each may
    publish gauges into the process registry (the usual ``publish()`` seam)
    and/or return extra registry-snapshot-format entries to append (used
    for values computed fresh per scrape, like entry-age histograms, which
    must not accumulate into cumulative metrics across scrapes).

    ``readiness`` probes are ``() -> (ok, detail)`` callables; /readyz is
    200 only when all pass.  A probe that raises counts as failing.
    """

    def __init__(
        self,
        address="127.0.0.1:0",
        *,
        collect=(),
        readiness=(),
        name: str = "telemetry",
    ) -> None:
        # local import: repro.net pulls repro.obs in at package load, so
        # the reverse edge must stay function-scoped
        from ..net.wire import parse_address

        host, port = parse_address(address)
        self.name = name
        self._collect = list(collect)
        self._readiness = list(readiness)
        self._lock = threading.Lock()
        self._scrapes = 0  # guarded-by: self._lock
        self._hook_errors = 0  # guarded-by: self._lock

        server = self

        class _Handler(BaseHTTPRequestHandler):
            # scrapers poll; access logs at 1 line/scrape are pure noise
            def log_message(self, fmt, *args):  # noqa: N802 — stdlib name
                return None

            def do_GET(self):  # noqa: N802 — stdlib name
                try:
                    server._handle(self)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # scraper hung up mid-reply

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.address: tuple[str, int] = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.25},
            name=f"{name}-http",
            daemon=True,
        )
        self._thread.start()

    # -- lifecycle -----------------------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.address[0]}:{self.address[1]}"

    def __enter__(self) -> "TelemetryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    # -- request handling ----------------------------------------------------------------

    def _entries(self) -> list[dict]:
        """Registry snapshot plus every collect hook's extra entries; a
        hook that raises degrades the scrape instead of failing it."""
        extras: list[dict] = []
        for hook in self._collect:
            try:
                got = hook()
            except Exception as exc:  # noqa: BLE001 — scrape isolation boundary
                with self._lock:
                    self._hook_errors += 1
                log.warning("%s: collect hook failed: %s", self.name, exc)
                continue
            if got:
                extras.extend(got)
        return runtime.snapshot() + extras

    def _probe_results(self) -> tuple[bool, dict]:
        probes: dict[str, dict] = {}
        ready = True
        for probe in self._readiness:
            try:
                ok, detail = probe()
            except Exception as exc:  # noqa: BLE001 — probe isolation boundary
                ok, detail = False, f"probe raised {type(exc).__name__}: {exc}"
            pname = getattr(probe, "probe_name", None) or getattr(
                probe, "__name__", "probe"
            )
            probes[str(pname)] = {"ok": bool(ok), "detail": str(detail)}
            ready = ready and bool(ok)
        return ready, probes

    def _handle(self, req: BaseHTTPRequestHandler) -> None:
        # lazy: export also executes at repro.obs package-import time, and
        # REPRO_OBS_HTTP starts this server *during* that import — a
        # module-level export import here would re-enter the half-loaded
        # module and kill the env-gated startup path
        from .export import DUMP_VERSION, to_prometheus

        path = req.path.split("?", 1)[0]
        with self._lock:
            self._scrapes += 1
        if path == "/metrics":
            body = to_prometheus(self._entries()).encode("utf-8")
            self._reply(req, 200, body, "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/healthz":
            self._reply(req, 200, b"ok\n", "text/plain; charset=utf-8")
        elif path == "/readyz":
            ready, probes = self._probe_results()
            body = json.dumps(
                {"ready": ready, "probes": probes}, sort_keys=True
            ).encode("utf-8")
            self._reply(req, 200 if ready else 503, body, "application/json")
        elif path == "/snapshot":
            spans, dropped = runtime.peek_spans()
            with self._lock:
                hook_errors = self._hook_errors
            payload = {
                "meta": {
                    "version": DUMP_VERSION,
                    "dropped_spans": int(dropped),
                    "server": self.name,
                    "obs_enabled": runtime.enabled(),
                    "hook_errors": hook_errors,
                },
                "metrics": self._entries(),
                "spans": spans,
            }
            body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
            self._reply(req, 200, body, "application/json")
        else:
            self._reply(
                req, 404,
                b"unknown path; try /metrics /healthz /readyz /snapshot\n",
                "text/plain; charset=utf-8",
            )

    @staticmethod
    def _reply(req, status: int, body: bytes, content_type: str) -> None:
        req.send_response(status)
        req.send_header("Content-Type", content_type)
        req.send_header("Content-Length", str(len(body)))
        req.end_headers()
        req.wfile.write(body)
