"""Observability configuration (the ``MLRConfig(obs=...)`` knob).

:class:`ObsConfig` is a plain dataclass with no dependencies so every
layer — config, solver, net daemon, CLI — can carry one without pulling
the rest of the package in.  Passing it to
:func:`repro.obs.runtime.configure` (which :class:`~repro.core.mlr_solver.MLRSolver`
does when ``MLRConfig.obs`` is set) switches the process-wide runtime;
the ``REPRO_OBS=1`` environment variable is the zero-code equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ObsConfig"]


@dataclass
class ObsConfig:
    """Process-wide observability knobs.

    enabled:
        Master switch.  While off, every instrumentation site costs one
        dict lookup and allocates nothing: ``counter()`` / ``gauge()`` /
        ``histogram()`` return a shared null metric (no registry entry is
        created) and ``span()`` returns a shared no-op context manager.
    span_buffer:
        Capacity of each thread's span ring buffer.  Finished spans beyond
        the capacity overwrite the oldest ones (the drop is counted and
        reported), so tracing never grows memory without bound.
    histogram_min_s / histogram_max_s / buckets_per_decade:
        The fixed log-spaced latency bucket grid shared by every duration
        histogram: ``buckets_per_decade`` edges per decade from
        ``histogram_min_s`` up to ``histogram_max_s``.  Fixed buckets (no
        raw sample lists) keep per-metric memory constant regardless of
        traffic.
    flight_dir:
        Directory for black-box flight-recorder dumps
        (:func:`repro.obs.runtime.flight_dump` artifacts, written on job
        failure / snapshot quarantine / circuit-breaker open).  ``None``
        falls back to the ``REPRO_FLIGHT_DIR`` environment variable; with
        neither set, fault paths skip the dump entirely.
    http_port / http_host:
        With ``http_port`` set (and the runtime enabled), the runtime
        starts a :class:`~repro.obs.http.TelemetryServer` on
        ``http_host:http_port`` serving ``/metrics``, ``/healthz``,
        ``/readyz`` and ``/snapshot`` for this process (port 0 binds
        ephemerally — read it back via
        :func:`repro.obs.runtime.telemetry_server`).  The zero-code
        equivalent is ``REPRO_OBS_HTTP=<port>`` in the environment, which
        also implies ``REPRO_OBS=1``.
    """

    enabled: bool = True
    span_buffer: int = 4096
    histogram_min_s: float = 1e-6
    histogram_max_s: float = 100.0
    buckets_per_decade: int = 4
    flight_dir: str | None = None
    http_port: int | None = None
    http_host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if self.http_port is not None and not (0 <= self.http_port <= 65535):
            raise ValueError(
                f"http_port must be in [0, 65535] or None, got {self.http_port}"
            )
        if self.span_buffer < 1:
            raise ValueError(f"span_buffer must be >= 1, got {self.span_buffer}")
        if not (0.0 < self.histogram_min_s < self.histogram_max_s):
            raise ValueError(
                "need 0 < histogram_min_s < histogram_max_s, got "
                f"{self.histogram_min_s} / {self.histogram_max_s}"
            )
        if self.buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {self.buckets_per_decade}"
            )
