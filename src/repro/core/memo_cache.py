"""The memoization cache (paper Section 4.4): private vs global.

The compute node keeps recently retrieved values so repeated hits skip the
remote memory node entirely.  The paper's design point — validated by
Figure 12 — is a *private* cache: one single-entry FIFO cache per chunk
location, giving the same hit rate as a shared global cache at a fraction
of the similarity-comparison cost (one comparison vs one per cached item).
Both variants are implemented so the comparison is reproducible; the
``comparisons`` counter is the 85%-savings statistic of Section 4.4.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..solvers.metrics import cosine_similarity

__all__ = ["CacheStats", "CacheHit", "PrivateMemoCache", "GlobalMemoCache"]


@dataclass(frozen=True)
class CacheHit:
    """A successful cache lookup: the value plus the metadata affine
    (DC-exact, AC-scale-corrected) reuse needs."""

    value: object
    key: np.ndarray
    meta: object


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    comparisons: int = 0
    per_iteration: dict = field(default_factory=dict)  # iteration -> [hits, lookups]

    def record(self, iteration: int, hit: bool) -> None:
        bucket = self.per_iteration.setdefault(iteration, [0, 0])
        bucket[0] += int(hit)
        bucket[1] += 1

    def hit_rate_series(self) -> list[tuple[int, float]]:
        return [
            (it, h / max(n, 1)) for it, (h, n) in sorted(self.per_iteration.items())
        ]

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Accumulate another cache's counters (e.g. per-worker caches into
        a fleet-wide aggregate)."""
        self.hits += other.hits
        self.misses += other.misses
        self.comparisons += other.comparisons
        for it, (h, n) in other.per_iteration.items():
            bucket = self.per_iteration.setdefault(it, [0, 0])
            bucket[0] += h
            bucket[1] += n
        return self


class PrivateMemoCache:
    """One single-entry FIFO cache per chunk location (the mLR design).

    A lookup compares the query key against at most one cached key, so the
    similarity-comparison cost per lookup is O(1) regardless of how many
    locations exist.
    """

    def __init__(self, tau: float) -> None:
        if not (0.0 < tau <= 1.0):
            raise ValueError(f"tau must be in (0, 1], got {tau}")
        self.tau = tau
        self._items: dict = {}
        self.stats = CacheStats()

    def lookup(self, location, key: np.ndarray, iteration: int = 0) -> CacheHit | None:
        """Return the cached entry if the location's entry is tau-similar."""
        item = self._items.get(location)
        result = None
        if item is not None:
            self.stats.comparisons += 1
            cached_key, cached_value, cached_meta = item
            if cosine_similarity(key, cached_key) > self.tau:
                result = CacheHit(cached_value, cached_key, cached_meta)
        self.stats.hits += int(result is not None)
        self.stats.misses += int(result is None)
        self.stats.record(iteration, result is not None)
        return result

    def insert(self, location, key: np.ndarray, value, meta=None) -> None:
        """FIFO with capacity one: the new entry replaces the old."""
        self._items[location] = (
            np.asarray(key, dtype=np.float32).copy(),
            value,
            meta,
        )

    def __len__(self) -> int:
        return len(self._items)


class GlobalMemoCache:
    """Shared cache across all chunk locations (the baseline of Figure 12).

    Capacity equals the number of chunk locations so total memory matches
    the private design; a lookup must compare against every cached item
    ("the global cache has to perform 64 [comparisons] for the 1K^3
    dataset"), which is where its overhead comes from.  FIFO replacement.

    ``extents[location]`` is the location's chunk extent (rows on the sweep
    axis): an entry is a candidate only for a query from a chunk of the same
    extent, since on a ragged chunk grid a value computed on one extent
    cannot serve another.
    """

    def __init__(self, tau: float, capacity: int, extents) -> None:
        if not (0.0 < tau <= 1.0):
            raise ValueError(f"tau must be in (0, 1], got {tau}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.tau = tau
        self.capacity = capacity
        self._extents = extents
        self._items: OrderedDict = OrderedDict()  # insertion-ordered, FIFO
        self._counter = 0
        self.stats = CacheStats()

    def lookup(self, location, key: np.ndarray, iteration: int = 0) -> CacheHit | None:
        """Scan all cached items; best tau-similar entry wins (any location's
        entry of the query's chunk extent may serve it — cross-location data
        sharing)."""
        best_sim = -2.0
        best = None
        extent = self._extents[location]
        for cached_extent, cached_key, cached_value, cached_meta in self._items.values():
            if cached_extent != extent:
                continue
            self.stats.comparisons += 1
            sim = cosine_similarity(key, cached_key)
            if sim > best_sim:
                best_sim = sim
                best = (cached_key, cached_value, cached_meta)
        hit = best_sim > self.tau and best is not None
        self.stats.hits += int(hit)
        self.stats.misses += int(not hit)
        self.stats.record(iteration, hit)
        return CacheHit(best[1], best[0], best[2]) if hit else None

    def insert(self, location, key: np.ndarray, value, meta=None) -> None:
        self._counter += 1
        while len(self._items) >= self.capacity:
            self._items.popitem(last=False)
        self._items[self._counter] = (
            self._extents[location],
            np.asarray(key, dtype=np.float32).copy(),
            value,
            meta,
        )

    def __len__(self) -> int:
        return len(self._items)
