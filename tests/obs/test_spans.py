"""Trace spans: parentage, ring-buffer bounds, per-thread rings."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.obs import SpanCollector, current_span_id
from repro.obs import runtime as obs
from repro.obs.spans import NULL_SPAN


def by_name(spans):
    out = {}
    for rec in spans:
        out.setdefault(rec["name"], []).append(rec)
    return out


class TestParentage:
    def test_nested_spans_link_parent_ids(self, enabled):
        with obs.span("outer"):
            outer_id = current_span_id()
            with obs.span("inner"):
                assert current_span_id() != outer_id
            assert current_span_id() == outer_id
        assert current_span_id() is None
        spans, dropped = obs.drain_spans()
        assert dropped == 0
        recs = by_name(spans)
        assert recs["outer"][0]["parent_id"] is None
        assert recs["inner"][0]["parent_id"] == recs["outer"][0]["span_id"]

    def test_siblings_share_a_parent(self, enabled):
        with obs.span("root"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        recs = by_name(obs.drain_spans()[0])
        root_id = recs["root"][0]["span_id"]
        assert recs["a"][0]["parent_id"] == root_id
        assert recs["b"][0]["parent_id"] == root_id

    def test_exception_is_recorded_and_propagates(self, enabled):
        with pytest.raises(KeyError):
            with obs.span("boom"):
                raise KeyError("x")
        rec = obs.drain_spans()[0][0]
        assert rec["error"] == "KeyError"

    def test_attrs_and_duration_are_recorded(self, enabled):
        with obs.span("work", chunk=3, op="Fu1D"):
            pass
        rec = obs.drain_spans()[0][0]
        assert rec["attrs"] == {"chunk": 3, "op": "Fu1D"}
        assert rec["dur_s"] >= 0.0


class TestRingBuffer:
    def test_overflow_drops_oldest_and_counts(self):
        coll = SpanCollector(capacity=4)
        for i in range(10):
            coll.record({"name": f"s{i}", "t0": float(i)})
        records, dropped = coll.drain()
        assert dropped == 6
        assert [r["name"] for r in records] == ["s6", "s7", "s8", "s9"]
        # drained: the buffers are empty and the drop count was handed over
        assert coll.drain() == ([], 0)

    def test_threads_record_into_their_own_rings(self, enabled):
        n_threads, per_thread = 4, 50
        barrier = threading.Barrier(n_threads)

        def work(k):
            barrier.wait()
            for i in range(per_thread):
                with obs.span("t.work", owner=k):
                    pass

        threads = [
            threading.Thread(target=work, args=(k,)) for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans, dropped = obs.drain_spans()
        assert dropped == 0
        assert len(spans) == n_threads * per_thread
        # drain is globally ordered by start time
        t0s = [rec["t0"] for rec in spans]
        assert t0s == sorted(t0s)


class TestSweepSpans:
    def test_executor_sweep_spans(self, enabled, tiny_ops):
        """The real seam: an executor sweep produces one sweep.<op> span per
        chunk, parented to the caller's span."""
        from repro.solvers.executor import DirectExecutor

        execu = DirectExecutor(tiny_ops, chunk_size=4)
        u = np.zeros(tiny_ops.geometry.vol_shape, dtype=np.complex64)
        with obs.span("caller"):
            execu.fu1d(u)
        recs = by_name(obs.drain_spans()[0])
        caller_id = recs["caller"][0]["span_id"]
        sweeps = recs["sweep.Fu1D"]
        assert len(sweeps) == 4  # 16 rows / chunk_size 4
        assert all(s["parent_id"] == caller_id for s in sweeps)
        assert [s["attrs"]["chunk"] for s in sweeps] == [0, 1, 2, 3]


class TestDisabled:
    def test_disabled_span_is_the_shared_null_singleton(self, disabled):
        assert obs.span("anything", k=1) is NULL_SPAN
        with obs.span("anything"):
            assert current_span_id() is None
        assert obs.drain_spans() == ([], 0)
