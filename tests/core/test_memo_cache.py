"""Private vs global memoization caches (paper Section 4.4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GlobalMemoCache, PrivateMemoCache

#: one chunk extent for every location the global-cache tests use
EXTENTS = [4] * 64


def key(rng, dim=16):
    return rng.standard_normal(dim).astype(np.float32)


class TestPrivateCache:
    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            PrivateMemoCache(tau=0.0)

    def test_miss_on_empty(self, rng):
        c = PrivateMemoCache(tau=0.9)
        assert c.lookup(0, key(rng)) is None
        assert c.stats.misses == 1

    def test_hit_on_same_key(self, rng):
        c = PrivateMemoCache(tau=0.9)
        k = key(rng)
        c.insert(3, k, "value", meta=(1.0, 0j))
        hit = c.lookup(3, k)
        assert hit is not None and hit.value == "value"
        assert hit.meta == (1.0, 0j)

    def test_locations_are_isolated(self, rng):
        """A private cache never serves another location's entry."""
        c = PrivateMemoCache(tau=0.5)
        k = key(rng)
        c.insert(0, k, "value")
        assert c.lookup(1, k) is None

    def test_dissimilar_key_misses(self, rng):
        c = PrivateMemoCache(tau=0.99)
        c.insert(0, key(rng), "a")
        assert c.lookup(0, key(rng)) is None

    def test_fifo_single_entry_replacement(self, rng):
        c = PrivateMemoCache(tau=0.9)
        k1, k2 = key(rng), key(rng)
        c.insert(0, k1, "first")
        c.insert(0, k2, "second")
        assert c.lookup(0, k2).value == "second"
        assert c.lookup(0, k1) is None  # k1's entry was replaced
        assert len(c) == 1

    def test_one_comparison_per_lookup(self, rng):
        """The O(1) property the paper's 85% savings comes from."""
        c = PrivateMemoCache(tau=0.9)
        for loc in range(32):
            c.insert(loc, key(rng), loc)
        c.lookup(7, key(rng))
        assert c.stats.comparisons == 1

    def test_per_iteration_series(self, rng):
        c = PrivateMemoCache(tau=0.9)
        k = key(rng)
        c.insert(0, k, "v")
        c.lookup(0, k, iteration=0)
        c.lookup(0, key(rng), iteration=1)
        series = dict(c.stats.hit_rate_series())
        assert series[0] == 1.0 and series[1] == 0.0


class TestGlobalCache:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GlobalMemoCache(tau=1.5, capacity=4, extents=EXTENTS)
        with pytest.raises(ValueError):
            GlobalMemoCache(tau=0.9, capacity=0, extents=EXTENTS)

    def test_cross_location_sharing(self, rng):
        """The defining difference: any location's entry can serve."""
        c = GlobalMemoCache(tau=0.5, capacity=8, extents=EXTENTS)
        k = key(rng)
        c.insert(0, k, "value")
        hit = c.lookup(5, k)
        assert hit is not None and hit.value == "value"

    def test_comparisons_scale_with_size(self, rng):
        c = GlobalMemoCache(tau=0.9, capacity=64, extents=EXTENTS)
        for loc in range(32):
            c.insert(loc, key(rng), loc)
        c.stats.comparisons = 0
        c.lookup(0, key(rng))
        assert c.stats.comparisons == 32

    def test_fifo_eviction_at_capacity(self, rng):
        c = GlobalMemoCache(tau=0.9, capacity=2, extents=EXTENTS)
        keys = [key(rng) for _ in range(3)]
        for i, k in enumerate(keys):
            c.insert(i, k, i)
        assert len(c) == 2
        assert c.lookup(0, keys[0]) is None  # oldest evicted
        assert c.lookup(0, keys[2]).value == 2

    def test_best_match_wins(self, rng):
        c = GlobalMemoCache(tau=0.8, capacity=8, extents=EXTENTS)
        k = key(rng)
        near = (k + 0.01 * key(rng)).astype(np.float32)
        far = (k + 0.5 * key(rng)).astype(np.float32)
        c.insert(0, far, "far")
        c.insert(1, near, "near")
        assert c.lookup(9, k).value == "near"

    def test_only_same_extent_chunks_share(self, rng):
        """On a ragged chunk grid an entry serves only a query from a chunk
        of its own extent: the short last chunk's value cannot stand in for
        a full chunk's, even under an identical key."""
        c = GlobalMemoCache(tau=0.5, capacity=8, extents=[24, 24, 16])
        k = key(rng)
        c.insert(2, k, "short")
        assert c.lookup(0, k) is None
        assert c.stats.comparisons == 0  # not a candidate, not compared
        c.insert(0, k, "full")
        assert c.lookup(1, k).value == "full"
        assert c.lookup(2, k).value == "short"
