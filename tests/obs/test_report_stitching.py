"""Span-tree stitching: ``build_trace`` units.

Synthetic span records (hand-built, no daemon) pin the stitching rules
the trace-propagation suite exercises end-to-end: name-path aggregation,
orphan accounting and the hop table's client-minus-server arithmetic.
"""

from __future__ import annotations

import pytest

from repro.obs.export import DUMP_VERSION
from repro.obs.report import build_report, build_trace, render_report


def span(sid, name, parent=None, trace=1, dur=0.01, attrs=None, error=None):
    rec = {
        "name": name, "t0": 0.0, "dur_s": dur, "span_id": sid,
        "parent_id": parent, "trace_id": trace, "thread": "t",
    }
    if attrs:
        rec["attrs"] = attrs
    if error:
        rec["error"] = error
    return rec


def dump(spans, metrics=(), dropped=0):
    return {
        "meta": {"version": DUMP_VERSION, "dropped_spans": dropped},
        "metrics": list(metrics),
        "spans": list(spans),
    }


class TestBuildTrace:
    def test_pre_trace_dump_returns_none(self):
        assert build_trace([]) is None
        assert build_trace([{"name": "old", "dur_s": 0.1}]) is None

    def test_name_path_aggregation(self):
        spans = [
            span(1, "root"),
            span(2, "child", parent=1), span(3, "child", parent=1),
            span(4, "leaf", parent=2),
        ]
        trace = build_trace(spans)
        assert trace["traces"] == 1 and trace["orphans"] == 0
        rows = {tuple(r["path"]): r for r in trace["tree"]}
        assert rows[("root", "child")]["count"] == 2  # same path, one row
        assert rows[("root", "child", "leaf")]["depth"] == 2

    def test_missing_parent_roots_chain_and_counts_orphan(self):
        spans = [span(5, "stranded", parent=999)]
        trace = build_trace(spans)
        assert trace["orphans"] == 1
        assert trace["tree"][0]["path"] == ["stranded"]  # rooted where cut

    def test_cycle_guard_terminates(self):
        spans = [span(1, "a", parent=2), span(2, "b", parent=1)]
        trace = build_trace(spans)  # corrupt dump must not hang
        assert trace is not None and len(trace["tree"]) == 2

    def test_errors_counted(self):
        spans = [span(1, "ok"), span(2, "boom", parent=1, error="ValueError: x")]
        trace = build_trace(spans)
        assert trace["errors"] == 1
        row = next(r for r in trace["tree"] if r["name"] == "boom")
        assert row["errors"] == 1

    def test_hop_table_subtracts_server_from_client(self):
        spans = [
            span(1, "net_client.request", dur=0.010),
            span(2, "net_server.request", parent=1, dur=0.004,
                 attrs={"type": "query_batch"}),
            span(3, "net_client.request", dur=0.001, attrs={"pipelined": True}),
            span(4, "net_server.request", parent=3, dur=0.006,
                 attrs={"type": "insert_batch"}),
        ]
        hops = {h["type"]: h for h in build_trace(spans)["hops"]}
        assert hops["query_batch"]["wire_mean_s"] == pytest.approx(0.006)
        # pipelined: client span closed at transmit, floor at zero
        assert hops["insert_batch"]["wire_mean_s"] == 0.0

    def test_shard_table_groups_by_shard(self):
        spans = [
            span(1, "net_server.shard", dur=0.2, attrs={"shard": 0}),
            span(2, "net_server.shard", dur=0.4, attrs={"shard": 0}),
            span(3, "net_server.shard", dur=0.1, attrs={"shard": 1}),
        ]
        shards = {s["shard"]: s for s in build_trace(spans)["shards"]}
        assert shards["0"]["count"] == 2
        assert shards["0"]["mean_s"] == pytest.approx(0.3)


class TestRender:
    def test_sections_render(self):
        spans = [
            span(1, "solver.reconstruct"),
            span(2, "net_client.request", parent=1),
            span(3, "net_server.request", parent=2,
                 attrs={"type": "query_batch"}),
            span(4, "net_server.shard", parent=3, attrs={"shard": 0}),
            span(9, "lost", parent=999),
        ]
        text = render_report(build_report(dump(spans)))
        assert "trace tree (1 traces, 1 orphaned spans)" in text
        assert "    net_server.request" in text  # depth-2 indent
        assert "wire hops" in text and "query_batch" in text
        assert "server shards" in text
