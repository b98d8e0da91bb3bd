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
    """

    enabled: bool = True
    span_buffer: int = 4096
    histogram_min_s: float = 1e-6
    histogram_max_s: float = 100.0
    buckets_per_decade: int = 4

    def __post_init__(self) -> None:
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
