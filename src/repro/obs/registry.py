"""Thread-safe metrics registry: counters, gauges, log-bucketed histograms.

The registry is the convergence point of the repo's stats dataclasses
(``NetClientStats``, ``SchedulerStats``, ``MemoDBStats`` — all through
:func:`repro.obs.runtime.publish_gauges`) and of the live instrumentation
on the sweep / FFT / ANN / queue / wire hot paths.  Design constraints:

- **bounded memory** — histograms hold fixed log-spaced bucket counts plus
  (count, sum, min, max); no metric ever keeps an unbounded sample list,
- **exact under concurrency** — every metric guards its state with its own
  leaf lock (nothing is acquired while a metric lock is held), so N threads
  hammering one counter sum exactly,
- **cheap identity** — a metric is keyed by ``(name, sorted labels)``;
  repeated ``counter("x", op="Fu1D")`` calls return the same object, so
  call sites need no caching discipline.
"""

from __future__ import annotations

import bisect
import math
import threading

__all__ = [
    "log_bucket_edges",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


def log_bucket_edges(
    min_value: float = 1e-6, max_value: float = 100.0, per_decade: int = 4
) -> tuple[float, ...]:
    """Fixed log-spaced bucket upper edges covering [min_value, max_value].

    ``per_decade`` edges per decade; the final edge is >= ``max_value`` so
    the grid always covers the configured range (observations above it land
    in the implicit overflow bucket).
    """
    if not (0.0 < min_value < max_value):
        raise ValueError(f"need 0 < min ({min_value}) < max ({max_value})")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    n_decades = math.log10(max_value / min_value)
    n_edges = int(math.ceil(n_decades * per_decade)) + 1
    step = 10.0 ** (1.0 / per_decade)
    edges = [min_value * step**i for i in range(n_edges)]
    if edges[-1] < max_value * (1.0 - 1e-9):
        edges.append(edges[-1] * step)
    return tuple(edges)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonic counter; ``inc`` is atomic under the metric's leaf lock."""

    kind = "counter"

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: self._lock

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """Last-value metric with a high-water mark (queue depths, stats fields)."""

    kind = "gauge"

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: self._lock
        self._max = 0.0  # guarded-by: self._lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            if self._value > self._max:
                self._max = self._value

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "kind": self.kind,
                "name": self.name,
                "labels": dict(self.labels),
                "value": self._value,
                "max": self._max,
            }


class Histogram:
    """Fixed log-spaced-bucket histogram (latency distributions).

    ``edges`` are upper bucket bounds; one implicit overflow bucket catches
    everything beyond the last edge.  Memory is O(len(edges)) forever —
    no raw samples are retained — yet quantiles remain recoverable to
    bucket resolution via :meth:`quantile`.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: dict, edges: tuple[float, ...]) -> None:
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("histogram edges must be non-empty and increasing")
        self.name = name
        self.labels = dict(labels)
        self.edges = tuple(float(e) for e in edges)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.edges) + 1)  # guarded-by: self._lock
        self._count = 0  # guarded-by: self._lock
        self._sum = 0.0  # guarded-by: self._lock
        self._min = math.inf  # guarded-by: self._lock
        self._max = 0.0  # guarded-by: self._lock

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.edges, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def quantile(self, q: float) -> float:
        """Approximate q-quantile from the bucket counts (log-interpolated
        within the containing bucket); 0.0 on an empty histogram."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            lo_seen, hi_seen = self._min, self._max
        return _bucket_quantile(self.edges, counts, total, lo_seen, hi_seen, q)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "kind": self.kind,
                "name": self.name,
                "labels": dict(self.labels),
                "edges": list(self.edges),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max,
            }


def _bucket_quantile(
    edges, counts, total: int, lo_seen: float, hi_seen: float, q: float
) -> float:
    """Shared bucket-quantile estimator (live histograms and JSONL replays)."""
    if total <= 0:
        return 0.0
    rank = q * total
    cum = 0
    for idx, n in enumerate(counts):
        cum += n
        if cum >= rank and n:
            lo = edges[idx - 1] if idx > 0 else min(lo_seen, edges[0])
            hi = edges[idx] if idx < len(edges) else max(hi_seen, edges[-1])
            frac = (rank - (cum - n)) / n
            if lo <= 0.0:
                est = lo + (hi - lo) * frac
            else:
                est = lo * (hi / lo) ** frac
            # bucket interpolation cannot beat the observed extremes
            return min(max(est, lo_seen), hi_seen)
    return hi_seen


class MetricsRegistry:
    """Get-or-create metric table keyed by ``(name, labels)``.

    Creation races are resolved under the registry lock; updates then go
    through the metric's own leaf lock, so the registry lock is never held
    while user code runs.
    """

    def __init__(self, default_edges: tuple[float, ...] | None = None) -> None:
        self.default_edges = tuple(default_edges) if default_edges else log_bucket_edges()
        self._lock = threading.Lock()
        self._metrics: dict = {}  # guarded-by: self._lock

    def _get_or_create(self, cls, name: str, labels: dict, *args):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels, *args)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r}{labels!r} already registered as "
                    f"{type(metric).__name__}, requested {cls.__name__}"
                )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, edges: tuple[float, ...] | None = None, **labels
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels, tuple(edges) if edges else self.default_edges
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def metrics(self) -> list:
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self) -> list[dict]:
        """Point-in-time state of every metric, sorted by (name, labels)."""
        return [
            m.snapshot()
            for m in sorted(
                self.metrics(), key=lambda m: (m.name, _label_key(m.labels))
            )
        ]

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()
