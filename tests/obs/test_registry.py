"""Metrics registry semantics: bucket edges, exact concurrent counting,
label series identity, kind safety."""

from __future__ import annotations

import threading

import pytest

from repro.obs import MetricsRegistry, log_bucket_edges


class TestBucketEdges:
    def test_edges_are_strictly_increasing_and_span_the_range(self):
        edges = log_bucket_edges(1e-6, 100.0, 4)
        assert all(a < b for a, b in zip(edges, edges[1:]))
        assert edges[0] == pytest.approx(1e-6)
        # the top edge covers max_value without a stray bucket beyond it
        assert edges[-1] == pytest.approx(100.0, rel=1e-6)

    def test_count_matches_decades_times_resolution(self):
        edges = log_bucket_edges(1e-3, 1.0, 5)
        # 3 decades x 5 buckets/decade, plus the bottom edge
        assert len(edges) == 16

    def test_invalid_ranges_raise(self):
        with pytest.raises(ValueError):
            log_bucket_edges(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            log_bucket_edges(-1.0, 10.0, 4)
        with pytest.raises(ValueError):
            log_bucket_edges(1e-6, 100.0, 0)


class TestCounter:
    def test_concurrent_increments_sum_exactly(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", op="Fu1D")
        n_threads, per_thread = 8, 5000

        def hammer():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * per_thread

    def test_label_sets_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", op="Fu1D").inc(3)
        reg.counter("hits", op="Fu2D").inc(5)
        assert reg.counter("hits", op="Fu1D").value == 3
        assert reg.counter("hits", op="Fu2D").value == 5
        assert len(reg) == 2

    def test_label_order_does_not_split_series(self):
        reg = MetricsRegistry()
        reg.counter("x", a="1", b="2").inc()
        reg.counter("x", b="2", a="1").inc()
        assert len(reg) == 1
        assert reg.counter("x", a="1", b="2").value == 2

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")
        with pytest.raises(TypeError):
            reg.histogram("m")


class TestGauge:
    def test_set_and_high_water_mark(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", queue="read")
        g.set(3)
        g.set(5)
        g.set(1)
        snap = g.snapshot()
        assert snap["value"] == 1
        assert snap["max"] == 5


class TestHistogram:
    def test_concurrent_observes_count_and_sum_exactly(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        n_threads, per_thread = 8, 3000

        def hammer():
            for i in range(per_thread):
                h.observe(1e-4)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = h.snapshot()
        assert snap["count"] == n_threads * per_thread
        assert snap["sum"] == pytest.approx(n_threads * per_thread * 1e-4)
        # bounded storage: bucket counts, never a sample list
        assert sum(snap["counts"]) == snap["count"]
        assert len(snap["counts"]) == len(snap["edges"]) + 1

    def test_overflow_bucket_catches_out_of_range(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", edges=(0.001, 0.01, 0.1))
        h.observe(5.0)  # beyond the top edge
        snap = h.snapshot()
        assert snap["counts"][-1] == 1
        assert snap["max"] == 5.0

    def test_quantile_is_monotone_and_bracketed(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 1e-2):
            h.observe(v)
        q50, q95, q99 = h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)
        assert q50 <= q95 <= q99
        snap = h.snapshot()
        assert snap["min"] <= q50
        assert q99 <= snap["max"] * (1 + 1e-9)

    def test_default_edges_come_from_the_registry(self):
        reg = MetricsRegistry(default_edges=(0.1, 1.0))
        h = reg.histogram("lat")
        assert tuple(h.edges) == (0.1, 1.0)
        with pytest.raises(ValueError):
            reg.histogram("bad", edges=(1.0, 0.5))  # not increasing


class TestRegistrySnapshot:
    def test_snapshot_is_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.gauge("a").set(1)
        reg.histogram("c").observe(0.1)
        names = [e["name"] for e in reg.snapshot()]
        assert names == ["a", "b", "c"]

    def test_clear_empties_the_registry(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.clear()
        assert len(reg) == 0
        assert reg.snapshot() == []
