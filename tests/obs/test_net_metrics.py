"""Network-tier metrics: the daemon's view through its telemetry plane,
client request-latency histograms, degraded-mode counters and the
``net_client_*`` gauges the solver publishes — all off the memo wire."""

from __future__ import annotations

import json
import urllib.request

import numpy as np
import pytest

from repro.core import MemoConfig, MLRConfig, MLRSolver, ObsConfig
from repro.core.memo_shard import ShardInsert, ShardQuery
from repro.net import MemoServerDaemon, RemoteMemoClient
from repro.obs import runtime as obs
from repro.solvers import ADMMConfig


def memo_cfg(**over) -> MemoConfig:
    base = dict(tau=0.9, index_train_min=4, index_clusters=2, index_nprobe=2)
    base.update(over)
    return MemoConfig(**base)


@pytest.fixture()
def daemon():
    with MemoServerDaemon(n_shards=2, memo=memo_cfg(), telemetry_port=0) as d:
        yield d


def traffic(client, rng):
    dim = 16
    inserts = [
        ShardInsert("Fu1D", loc, rng.standard_normal(dim).astype(np.float32),
                    np.ones((2, 2), np.complex64), meta=(1.0, 0j))
        for loc in range(8)
    ]
    client.insert_batch(inserts)
    client.flush()
    probes = [ShardQuery("Fu1D", i.location, i.key) for i in inserts]
    return client.query_batch(probes)


def scrape(daemon, path: str) -> str:
    with urllib.request.urlopen(daemon.telemetry.url + path, timeout=5.0) as resp:
        return resp.read().decode("utf-8")


class TestDaemonTelemetryPlane:
    def test_snapshot_returns_server_view(self, enabled, daemon, rng):
        with RemoteMemoClient(daemon.address, expect_tau=memo_cfg().tau) as client:
            traffic(client, rng)
        payload = json.loads(scrape(daemon, "/snapshot"))
        assert payload["meta"]["obs_enabled"] is True
        by_name = {e["name"]: e for e in payload["metrics"]}
        assert by_name["net_server_query_batches"]["value"] == 1
        assert by_name["net_server_insert_batches"]["value"] == 1
        assert by_name["net_server_queries"]["labels"] == {"server": "memo-server"}
        # request + shard service-time histograms from the daemon side
        assert "net_server_request_seconds" in by_name
        assert "net_server_shard_seconds" in by_name

    def test_request_types_label_the_histograms(self, enabled, daemon, rng):
        with RemoteMemoClient(daemon.address, expect_tau=memo_cfg().tau) as client:
            traffic(client, rng)
        types = {
            e["labels"]["type"]
            for e in json.loads(scrape(daemon, "/snapshot"))["metrics"]
            if e["name"] == "net_server_request_seconds"
        }
        assert {"query_batch", "insert_batch"} <= types

    def test_metrics_scrape_is_prometheus_text(self, enabled, daemon, rng):
        with RemoteMemoClient(daemon.address, expect_tau=memo_cfg().tau) as client:
            traffic(client, rng)
        out = scrape(daemon, "/metrics")
        assert "# TYPE net_server_query_batches gauge" in out
        assert 'net_server_query_batches{server="memo-server"} 1' in out
        assert "net_server_request_seconds_bucket" in out

    def test_the_scrape_costs_no_wire_request(self, enabled, daemon, rng):
        with RemoteMemoClient(daemon.address, expect_tau=memo_cfg().tau) as client:
            traffic(client, rng)
            scrape(daemon, "/metrics")
            assert client.net_stats.requests == 2  # insert + query, nothing else
        assert daemon.stats.stats_pulls == 0


    def test_readyz_follows_the_accept_loop(self, enabled, daemon):
        assert json.loads(scrape(daemon, "/readyz"))["probes"]["accepting"]["ok"] is True

    def test_an_idle_reap_is_counted_on_the_plane(self, enabled):
        import socket

        with MemoServerDaemon(memo=memo_cfg(), idle_timeout_s=0.05, telemetry_port=0) as d:
            with socket.create_connection(d.address, timeout=5.0) as sock:
                assert sock.recv(1 << 16)  # says nothing: the typed error, then EOF
            out = scrape(d, "/metrics")
        assert 'net_server_idle_reaped_total{server="memo-server"} 1' in out
        assert 'net_server_idle_reaped{server="memo-server"} 1' in out


class TestClientSide:
    def test_client_latency_histograms_by_message_type(self, enabled, daemon, rng):
        with RemoteMemoClient(daemon.address, expect_tau=memo_cfg().tau) as client:
            traffic(client, rng)
            client.stats()
        series = {
            (e["name"], e["labels"].get("type")): e
            for e in obs.snapshot()
            if e["name"] == "net_client_request_seconds"
        }
        assert ("net_client_request_seconds", "query_batch") in series
        assert ("net_client_request_seconds", "stats") in series
        q = series[("net_client_request_seconds", "query_batch")]
        assert q["count"] == 1 and q["sum"] > 0.0

    def test_solver_publishes_client_counters_next_to_memo_db(
        self, tiny_geometry, tiny_ops, tiny_data
    ):
        with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
            cfg = MLRConfig(
                chunk_size=4,
                memo=memo_cfg(transport="tcp", server_address=srv.address),
                obs=ObsConfig(),
            )
            solver = MLRSolver(
                tiny_geometry, cfg, ADMMConfig(n_outer=3, n_inner=2), ops=tiny_ops
            )
            try:
                solver.reconstruct(tiny_data)
                net = solver.memo_executor.router.net_stats
            finally:
                solver.close()
        gauges = {e["name"]: e["value"] for e in obs.snapshot() if e["kind"] == "gauge"
                  and e["name"].startswith("net_client_")}
        assert gauges["net_client_pipelined_inserts"] == net.pipelined_inserts > 0
        assert gauges["net_client_degraded_queries"] == 0
        assert gauges["net_client_requests"] == net.requests > 0
        assert set(gauges) == {f"net_client_{f}" for f in vars(net)}


class TestDegraded:
    def test_unreachable_server_fail_open(self, enabled):
        with MemoServerDaemon(n_shards=1, memo=memo_cfg()) as d:
            addr = d.address
        client = RemoteMemoClient(addr, fail_open=True)
        assert client.stats().queries == 0 and client.entries() == 0
        assert client.net_stats.degraded_stats_pulls == 2
        degraded = {
            e["labels"]["kind"]: e["value"]
            for e in obs.snapshot()
            if e["name"] == "net_client_degraded_total"
        }
        assert degraded == {"stats_pull": 2}
        client.close()

    def test_degraded_queries_count_in_registry(self, enabled, rng):
        with MemoServerDaemon(n_shards=1, memo=memo_cfg()) as d:
            addr = d.address
        client = RemoteMemoClient(addr, fail_open=True)
        probes = [
            ShardQuery("Fu1D", 0, rng.standard_normal(16).astype(np.float32))
            for _ in range(5)
        ]
        outcomes = client.query_batch(probes)
        assert all(not o.hit for o in outcomes)
        degraded = {
            e["labels"]["kind"]: e["value"]
            for e in obs.snapshot()
            if e["name"] == "net_client_degraded_total"
        }
        assert degraded == {"query_batch": 1, "query": 5}
        client.close()

    def test_fail_closed_still_raises(self, enabled):
        with MemoServerDaemon(n_shards=1, memo=memo_cfg()) as d:
            addr = d.address
        client = RemoteMemoClient(addr, fail_open=False)
        with pytest.raises(OSError):
            client.stats()
        client.close()
