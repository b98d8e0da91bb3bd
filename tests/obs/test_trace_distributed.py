"""Cross-process distributed tracing acceptance.

The PR's headline contracts:

- every ``net_server.request`` handler span (and its ``net_server.shard``
  children) parents under the ``net_client.request`` span that issued it,
  across the wire, under one trace id — including through reconnects and
  pipelined insert-ack drains,
- a daemon's spans leave through its telemetry plane (``/snapshot``), and
  merging that view with the local dump stitches a genuinely
  cross-*process* tree (exercised against a ``python -m repro.net.server
  --telemetry-port`` subprocess),
- a full TCP reconstruction yields one stitched tree rooted at
  ``solver.reconstruct`` with a per-hop wire-cost table,
- tracing off is invisible: no trace field on any frame, and the
  reconstruction is bit-identical with observability on and off.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from repro.core import MLRConfig, MLRSolver, MemoConfig, ObsConfig
from repro.core.memo_shard import ShardInsert, ShardQuery
from repro.faults import FaultPlan, FaultRule
from repro.faults import runtime as faults
from repro.net import MemoServerDaemon
from repro.net.client import RemoteMemoClient
from repro.obs import runtime as obs
from repro.obs.report import build_report, build_trace, merge_dumps, render_report
from repro.solvers import ADMMConfig

ADMM = ADMMConfig(n_outer=5, n_inner=2, step_max_rel=4.0)


def memo_cfg(**over) -> MemoConfig:
    base = dict(tau=0.92, warmup_iterations=1, index_train_min=4,
                index_clusters=2, index_nprobe=2)
    base.update(over)
    return MemoConfig(**base)


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faults.uninstall()
    yield
    faults.uninstall()


def key(seed: int, n: int = 8) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=n).astype(np.float32)


def insert(loc: int, seed: int = 0) -> ShardInsert:
    return ShardInsert("Fu1D", loc, key(seed), np.zeros(4, np.float32))


def query(loc: int, seed: int = 0) -> ShardQuery:
    return ShardQuery("Fu1D", loc, key(seed))


def by_name(spans, name):
    return [s for s in spans if s["name"] == name]


class TestSpanPropagation:
    def test_server_spans_parent_under_client_requests(self, enabled):
        with MemoServerDaemon(n_shards=2, name="traced") as d:
            with RemoteMemoClient(d.address, client_name="tc") as c:
                with obs.span("root.op"):
                    c.insert_batch([insert(0), insert(3, seed=1)])
                    c.query_batch([query(0), query(3)])
                    c.flush()
        spans, dropped = obs.drain_spans()
        assert dropped == 0
        root = by_name(spans, "root.op")[0]
        client_ids = {s["span_id"] for s in by_name(spans, "net_client.request")}
        servers = by_name(spans, "net_server.request")
        assert servers, "no handler spans recorded"
        for s in servers:
            # the handler thread has no ambient context: its parent can
            # only have arrived through the wire's trace field
            assert s["parent_id"] in client_ids
            assert s["trace_id"] == root["trace_id"]
        # client request spans parent under the caller's root span
        for s in by_name(spans, "net_client.request"):
            assert s["parent_id"] == root["span_id"]
        # shard work parents under its handler span (the router serves a
        # shard inline on the handler thread)
        server_ids = {s["span_id"] for s in servers}
        shards = by_name(spans, "net_server.shard")
        assert shards
        for s in shards:
            assert s["parent_id"] in server_ids
            assert s["trace_id"] == root["trace_id"]

    def test_pipelined_insert_acks_drain_stitched(self, enabled):
        """Fire-and-forget inserts: the client span closes at transmit,
        the acks drain under a later request — every handler span still
        stitches under the pipelined span that sent it."""
        with MemoServerDaemon(n_shards=2, name="pipelined") as d:
            with RemoteMemoClient(d.address, client_name="pc", max_inflight=8) as c:
                with obs.span("root.op"):
                    for i in range(6):
                        c.insert_batch([insert(i, seed=i)])
                    c.query_batch([query(0)])  # drains pending acks en route
                    c.flush()
        spans, _ = obs.drain_spans()
        pipelined = [
            s for s in by_name(spans, "net_client.request")
            if (s.get("attrs") or {}).get("pipelined")
        ]
        assert len(pipelined) == 6
        pipelined_ids = {s["span_id"] for s in pipelined}
        handled = [
            s for s in by_name(spans, "net_server.request")
            if (s.get("attrs") or {}).get("type") == "insert_batch"
        ]
        assert len(handled) == 6
        assert {s["parent_id"] for s in handled} == pipelined_ids

    def test_trace_field_gating(self, enabled):
        with MemoServerDaemon(n_shards=1, name="gated") as d:
            with RemoteMemoClient(d.address, client_name="gc") as c:
                # no open span: nothing to parent under
                assert c._trace_field_locked() is None
                with obs.span("root.op"):
                    field = c._trace_field_locked()
                    assert isinstance(field, dict)
                    assert set(field) == {"tid", "sid"}

    def test_disabled_attaches_nothing(self, disabled):
        with MemoServerDaemon(n_shards=1, name="dark") as d:
            with RemoteMemoClient(d.address, client_name="dc") as c:
                with obs.span("root.op"):  # the shared null span
                    assert c._trace_field_locked() is None
                    c.query_batch([query(0)])
        spans, _ = obs.drain_spans()
        assert spans == []


class TestReconnect:
    def test_stitching_survives_reconnect(self, enabled):
        """A dropped frame forces reconnect + retry; the retry attempt's
        request span still parents the server handler span."""
        plan = FaultPlan(77, (
            FaultRule("client:rc:send", "drop", prob=1.0, after=4, max_times=1),
        ))
        with MemoServerDaemon(n_shards=1, name="flaky") as d:
            with faults.injected_faults(plan):
                with RemoteMemoClient(d.address, client_name="rc") as c:
                    for _ in range(3):  # advance the send counter past `after`
                        c.ping()
                    with obs.span("root.op"):
                        outcomes = c.query_batch([query(0)])
                    assert len(outcomes) == 1
                    assert c.net_stats.connects >= 2  # it really reconnected
        spans, _ = obs.drain_spans()
        root = by_name(spans, "root.op")[0]
        attempts = [
            s for s in by_name(spans, "net_client.request")
            if (s.get("attrs") or {}).get("type") == "query_batch"
        ]
        assert any((s.get("attrs") or {}).get("attempt", 0) >= 2 for s in attempts)
        client_ids = {s["span_id"] for s in attempts}
        servers = [
            s for s in by_name(spans, "net_server.request")
            if (s.get("attrs") or {}).get("type") == "query_batch"
        ]
        assert servers
        for s in servers:
            assert s["parent_id"] in client_ids
            assert s["trace_id"] == root["trace_id"]


def plane_snapshot(url: str) -> dict:
    """A telemetry plane's ``/snapshot``: the shape ``load_jsonl`` gives."""
    with urllib.request.urlopen(url + "/snapshot", timeout=5.0) as resp:
        return json.loads(resp.read().decode("utf-8"))


class TestTelemetryPlaneSpans:
    def test_snapshot_peeks_the_daemons_spans(self, enabled):
        with MemoServerDaemon(n_shards=1, name="peeked", telemetry_port=0) as d:
            with RemoteMemoClient(d.address, client_name="tp") as c:
                c.ping()
                first = plane_snapshot(d.telemetry.url)
                assert first["meta"]["server"] == "peeked"
                assert first["meta"]["obs_enabled"] is True
                first_ids = {s["span_id"] for s in first["spans"]}
                assert first_ids  # the ping handler span at minimum
                c.ping()
                second = plane_snapshot(d.telemetry.url)
                # a read, not a drain: earlier spans stay in the ring
                assert first_ids < {s["span_id"] for s in second["spans"]}
                # and the wire saw the two pings only — no telemetry message
                assert c.net_stats.requests == 2

    def test_one_daemons_plane_stitches_under_the_client(self, enabled):
        with MemoServerDaemon(n_shards=2, name="ra", telemetry_port=0) as d:
            with RemoteMemoClient(d.address, client_name="agg") as c:
                with obs.span("root.op"):
                    c.insert_batch([insert(0)])
                    c.query_batch([query(0)])
                    c.flush()
            view = plane_snapshot(d.telemetry.url)
        assert view["meta"]["server"] == "ra"
        batches = {
            e["labels"]["server"]: e["value"]
            for e in view["metrics"] if e["name"] == "net_server_insert_batches"
        }
        assert batches == {"ra": 1}
        trace = build_trace(merge_dumps([view])["spans"])
        paths = {tuple(r["path"]) for r in trace["tree"]}
        assert ("root.op", "net_client.request", "net_server.request") in paths
        assert trace["orphans"] == 0


def _free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


@pytest.mark.slow  # spawns a server process
class TestCrossProcess:
    def test_subprocess_server_dump_stitches(self, enabled, tmp_path):
        """The real thing: the daemon in its own process (own obs runtime,
        own pid), its spans read from its telemetry plane's ``/snapshot``,
        merged with the local dump into one tree spanning two processes."""
        repo = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo, "src") + os.pathsep + env.get(
            "PYTHONPATH", "")
        env["REPRO_OBS"] = "1"
        port, plane_port = _free_port(), _free_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net.server",
             "--host", "127.0.0.1", "--port", str(port),
             "--shards", "2", "--tau", "0.92",
             "--telemetry-port", str(plane_port)],
            env=env, cwd=repo,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 20.0
            ready = False
            while time.monotonic() < deadline:
                try:
                    # the plane binds last: once it answers, both ports do
                    for p in (port, plane_port):
                        socket.create_connection(("127.0.0.1", p), timeout=1.0).close()
                    ready = True
                    break
                except OSError:
                    time.sleep(0.1)
            assert ready, "server subprocess never came up"
            client = RemoteMemoClient(
                ("127.0.0.1", port), expect_tau=0.92,
                fail_open=False, client_name="xproc",
            )
            with client:
                with obs.span("solver.reconstruct"):
                    client.insert_batch([insert(0), insert(3, seed=1)])
                    client.query_batch([query(0), query(3)])
                    client.flush()
            pulled = plane_snapshot(f"http://127.0.0.1:{plane_port}")
        finally:
            proc.terminate()
            proc.wait(timeout=10)
        local_spans, dropped = obs.drain_spans()
        data = merge_dumps([
            {"meta": {"dropped_spans": dropped}, "metrics": obs.snapshot(),
             "spans": local_spans},
            pulled,
        ])
        trace = build_trace(data["spans"])
        assert trace["procs"] == 2  # genuinely two processes in one tree
        paths = {tuple(r["path"]) for r in trace["tree"]}
        assert ("solver.reconstruct", "net_client.request",
                "net_server.request") in paths
        assert ("solver.reconstruct", "net_client.request",
                "net_server.request", "net_server.shard") in paths
        # the server-side rows carry the *server's* proc tag
        local_proc = local_spans[0]["proc"]
        for row in trace["tree"]:
            if row["name"] == "net_server.request":
                assert row["procs"] and local_proc not in row["procs"]
        # and the report renders a hop table off the merged data
        text = render_report(build_report(data))
        assert "wire hops" in text and "query_batch" in text


class TestFullSolveStitched:
    def test_tcp_reconstruction_yields_one_stitched_tree(
        self, tiny_geometry, tiny_ops, tiny_data
    ):
        with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
            cfg = MLRConfig(
                chunk_size=4,
                memo=memo_cfg(transport="tcp", server_address=srv.address),
                obs=ObsConfig(),
            )
            solver = MLRSolver(tiny_geometry, cfg, admm=ADMM, ops=tiny_ops)
            try:
                solver.reconstruct(tiny_data)
            finally:
                solver.close()
            spans, _ = obs.drain_spans()
        roots = by_name(spans, "solver.reconstruct")
        assert len(roots) == 1
        trace_id = roots[0]["trace_id"]
        servers = by_name(spans, "net_server.request")
        assert servers, "TCP solve produced no handler spans"
        span_ids = {s["span_id"] for s in spans}
        by_id = {s["span_id"]: s for s in spans}
        client_ids = {s["span_id"] for s in by_name(spans, "net_client.request")}
        for s in servers:
            # every handler span stitches under the client request that
            # issued it and inherits that request's trace
            assert s["parent_id"] in client_ids
            assert s["trace_id"] == by_id[s["parent_id"]]["trace_id"]
        # the reconstruction's own requests (the bulk: teardown flushes
        # outside the root span start their own traces) land in one tree
        in_root = [s for s in servers if s["trace_id"] == trace_id]
        assert len(in_root) >= len(servers) // 2 and in_root
        trace = build_trace(spans)
        assert trace["orphans"] == 0
        assert all(s.get("parent_id") in span_ids
                   for s in spans if s.get("parent_id") is not None)
        # per-hop wire-cost table: client minus server per message type
        hop_types = {h["type"] for h in trace["hops"]}
        assert "query_batch" in hop_types
        for hop in trace["hops"]:
            assert hop["client_mean_s"] >= 0 and hop["wire_mean_s"] >= 0
        text = render_report(build_report(
            {"meta": {}, "metrics": obs.snapshot(), "spans": spans}))
        assert "wire hops" in text

    def test_faulted_tcp_run_still_fully_stitched(
        self, tiny_geometry, tiny_ops, tiny_data
    ):
        plan = FaultPlan(1234, (
            FaultRule("client:*:send", "drop", prob=0.05, after=4, max_times=2),
            FaultRule("client:*:recv", "drop", prob=0.03, after=4, max_times=2),
        ))
        with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
            cfg = MLRConfig(
                chunk_size=4,
                memo=memo_cfg(transport="tcp", server_address=srv.address),
                obs=ObsConfig(),
            )
            with faults.injected_faults(plan):
                solver = MLRSolver(tiny_geometry, cfg, admm=ADMM, ops=tiny_ops)
                try:
                    solver.reconstruct(tiny_data)
                finally:
                    solver.close()
            spans, _ = obs.drain_spans()
        trace = build_trace(spans)
        assert trace is not None and trace["orphans"] == 0
        client_ids = {s["span_id"] for s in by_name(spans, "net_client.request")}
        for s in by_name(spans, "net_server.request"):
            assert s["parent_id"] in client_ids


class TestBitIdentity:
    def test_tracing_on_off_is_bit_identical(
        self, tiny_geometry, tiny_ops, tiny_data
    ):
        """Observability must observe, never perturb: the same TCP
        reconstruction with tracing on and off produces identical values."""
        def run(obs_cfg):
            with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
                cfg = MLRConfig(
                    chunk_size=4,
                    memo=memo_cfg(transport="tcp", server_address=srv.address),
                    obs=obs_cfg,
                )
                solver = MLRSolver(tiny_geometry, cfg, admm=ADMM, ops=tiny_ops)
                try:
                    return solver.reconstruct(tiny_data)
                finally:
                    solver.close()

        ref = run(ObsConfig(enabled=False))
        traced = run(ObsConfig())
        np.testing.assert_array_equal(ref.u, traced.u)
