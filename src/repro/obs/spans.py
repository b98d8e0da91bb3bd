"""Lightweight trace spans: monotonic timing, contextvars parentage,
per-thread ring buffers.

A span is one timed region (``with span("sweep.Fu1D", chunk=i):``).  Start
and stop come from ``time.monotonic()`` so durations survive wall-clock
adjustment; the parent relationship rides a :mod:`contextvars` variable, so
it follows the logical flow of control.

Spans form **traces**: the outermost span of a context mints a trace id
that every descendant span inherits, and both ids are designed to survive
being stitched *across processes* — span ids are salted with 31 random
per-process bits, so a server-side span recorded in the daemon can name a
client-side span as its parent (carried over the wire, see
:func:`repro.obs.runtime.server_span`) without id collisions cross-wiring
the merged tree.

Finished spans land in the *recording thread's* ring buffer: appends never
contend across threads (each ring's lock is only shared with the exporter
that drains it), and memory is bounded — a ring overwrites its oldest
record and counts the drop.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
import uuid

__all__ = [
    "SpanCollector",
    "Span",
    "current_span_id",
    "current_trace_context",
    "PROC_TAG",
]

#: id of the innermost open span in this logical context (None at top level)
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_span", default=None
)

#: trace id of the enclosing trace (minted by the outermost open span)
_TRACE: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_trace", default=None
)

_IDS = itertools.count(1)  # CPython-atomic id source shared by all threads

#: 31 random bits distinguishing this process's span ids from every other
#: process contributing records to one stitched trace
_PROC_SALT = uuid.uuid4().int & 0x7FFF_FFFF

#: provenance tag stamped on every record, so a merged report can say
#: which process a span came from
PROC_TAG = f"{os.getpid()}-{_PROC_SALT:08x}"


def _new_span_id() -> int:
    # salt << 32 | counter stays inside the wire's positive-i64 range
    return (_PROC_SALT << 32) | next(_IDS)


def _new_trace_id() -> int:
    return uuid.uuid4().int & 0x7FFF_FFFF_FFFF_FFFF


def current_span_id() -> int | None:
    """The innermost open span's id in this context, if any."""
    return _CURRENT.get()


def current_trace_context() -> tuple[int, int] | None:
    """``(trace_id, span_id)`` of the innermost open span, or ``None``.

    This is what a transport client attaches to an outgoing request so the
    server's handler span can parent under the caller's span."""
    span_id = _CURRENT.get()
    trace_id = _TRACE.get()
    if span_id is None or trace_id is None:
        return None
    return trace_id, span_id


class _SpanRing:
    """One thread's bounded buffer of finished span records."""

    def __init__(self, capacity: int, thread_name: str) -> None:
        self.capacity = capacity
        self.thread_name = thread_name
        self._lock = threading.Lock()
        self._items: list = [None] * capacity  # guarded-by: self._lock
        self._next = 0  # guarded-by: self._lock
        self._dropped = 0  # guarded-by: self._lock

    def append(self, record: dict) -> None:
        with self._lock:
            if self._items[self._next % self.capacity] is not None:
                self._dropped += 1
            self._items[self._next % self.capacity] = record
            self._next += 1

    def drain(self) -> tuple[list, int]:
        """Remove and return (records oldest-first, drop count so far)."""
        with self._lock:
            start = self._next % self.capacity
            ordered = self._items[start:] + self._items[:start]
            records = [r for r in ordered if r is not None]
            self._items = [None] * self.capacity
            self._next = 0
            dropped, self._dropped = self._dropped, 0
        return records, dropped

    def peek(self) -> tuple[list, int]:
        """Copy of (records oldest-first, drop count) without clearing —
        the flight recorder's read: a crash dump must not steal the spans
        a later orderly export would have reported."""
        with self._lock:
            start = self._next % self.capacity
            ordered = self._items[start:] + self._items[:start]
            records = [r for r in ordered if r is not None]
            dropped = self._dropped
        return records, dropped


class SpanCollector:
    """All threads' rings, plus the drain surface exporters use."""

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._rings: list = []  # guarded-by: self._lock
        self._tls = threading.local()

    def _ring(self) -> _SpanRing:
        ring = getattr(self._tls, "ring", None)
        if ring is None:
            ring = _SpanRing(self.capacity, threading.current_thread().name)
            self._tls.ring = ring
            with self._lock:
                self._rings.append(ring)
        return ring

    def record(self, record: dict) -> None:
        self._ring().append(record)

    def drain(self) -> tuple[list[dict], int]:
        """All finished spans across every thread (ordered by start time)
        plus the total ring-overflow drop count; the buffers are emptied."""
        with self._lock:
            rings = list(self._rings)
        records: list[dict] = []
        dropped = 0
        for ring in rings:
            got, n_dropped = ring.drain()
            records.extend(got)
            dropped += n_dropped
        records.sort(key=lambda r: r["t0"])
        return records, dropped

    def peek(self) -> tuple[list[dict], int]:
        """Like :meth:`drain` but non-destructive: the rings keep their
        records (and their drop counts) for the next drain."""
        with self._lock:
            rings = list(self._rings)
        records: list[dict] = []
        dropped = 0
        for ring in rings:
            got, n_dropped = ring.peek()
            records.extend(got)
            dropped += n_dropped
        records.sort(key=lambda r: r["t0"])
        return records, dropped


class Span:
    """One timed region; reusable only as a context manager, not re-entrant.

    ``remote`` (a ``(trace_id, parent_span_id)`` pair) grafts this span —
    and every local descendant — under a span recorded in *another*
    process: the server-side half of a request parents under the client
    span whose context rode the request frame."""

    __slots__ = (
        "name", "attrs", "collector", "span_id", "remote",
        "_t0", "_token", "_trace_token", "_trace_id",
    )

    def __init__(
        self,
        name: str,
        attrs: dict,
        collector: SpanCollector,
        remote: tuple[int, int] | None = None,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.collector = collector
        self.remote = remote
        self.span_id = 0
        self._t0 = 0.0
        self._token = None
        self._trace_token = None
        self._trace_id = 0

    def __enter__(self) -> "Span":
        self.span_id = _new_span_id()
        if self.remote is not None:
            # adopt the remote caller's trace wholesale — descendants of
            # this span belong to the caller's trace, not a local one
            self._trace_id = self.remote[0]
            self._trace_token = _TRACE.set(self._trace_id)
        else:
            trace_id = _TRACE.get()
            if trace_id is None:
                trace_id = _new_trace_id()
                self._trace_token = _TRACE.set(trace_id)
            else:
                self._trace_token = None
            self._trace_id = trace_id
        self._token = _CURRENT.set(self.span_id)
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur = time.monotonic() - self._t0
        _CURRENT.reset(self._token)
        if self._trace_token is not None:
            _TRACE.reset(self._trace_token)
        record = {
            "name": self.name,
            "t0": self._t0,
            "dur_s": dur,
            "span_id": self.span_id,
            "parent_id": (
                self.remote[1] if self.remote is not None else _CURRENT.get()
            ),
            "trace_id": self._trace_id,
            "proc": PROC_TAG,
            "thread": threading.current_thread().name,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if exc_type is not None:
            record["error"] = exc_type.__name__
        self.collector.record(record)


class _NullSpan:
    """Shared no-op context manager returned while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()
