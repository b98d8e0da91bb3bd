"""Live telemetry plane: the HTTP scrape/probe server.

The contract under test: a ``/metrics`` scrape reconciles *exactly* with
the in-process registry (valid Prometheus text, cumulative buckets),
``/readyz`` flips 503 <-> 200 with its probes, ``/snapshot`` is
report-compatible, hooks are isolation boundaries, and the bind address
goes through the same validation (same rejection message) as the memo
daemon's.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

import repro.obs as obs
from repro.net.wire import parse_address
from repro.obs import ObsConfig
from repro.obs.http import TelemetryServer
from repro.obs.report import build_report


def _get(url: str):
    """(status, content_type, body_bytes) — 4xx/5xx included, not raised."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type"), err.read()


class TestMetrics:
    def test_scrape_reconciles_exactly_with_registry(self, enabled):
        obs.counter("memo_chunks_total", op="Fu1D", case="cache_hit").inc(5)
        obs.gauge("scheduler_queue_depth").set(3)
        for dt in (0.001, 0.01, 0.01, 0.25):
            obs.histogram("job_run_seconds", job="a").observe(dt)
        with TelemetryServer() as srv:
            status, ctype, body = _get(srv.url + "/metrics")
        assert status == 200
        assert ctype == "text/plain; version=0.0.4; charset=utf-8"
        # byte-for-byte the same exposition the in-process exporter renders
        assert body.decode("utf-8") == obs.to_prometheus(obs.snapshot())

    def test_histogram_buckets_cumulative_and_consistent(self, enabled):
        h = obs.histogram("lat_seconds")
        for dt in (1e-5, 1e-3, 1e-3, 0.5, 50.0):
            h.observe(dt)
        with TelemetryServer() as srv:
            _, _, body = _get(srv.url + "/metrics")
        buckets, count = [], None
        for line in body.decode().splitlines():
            if line.startswith("lat_seconds_bucket"):
                buckets.append(int(line.rsplit(" ", 1)[1]))
            elif line.startswith("lat_seconds_count"):
                count = int(line.rsplit(" ", 1)[1])
        assert buckets, body
        assert buckets == sorted(buckets)  # cumulative => non-decreasing
        assert buckets[-1] == count == 5  # +Inf bucket equals _count

    def test_collect_hook_extras_rendered(self, enabled):
        extra = {
            "kind": "gauge",
            "name": "memo_tier_bytes",
            "labels": {"op": "Fu1D"},
            "value": 123.0,
            "max": 123.0,
        }
        with TelemetryServer(collect=[lambda: [extra]]) as srv:
            _, _, body = _get(srv.url + "/metrics")
        assert 'memo_tier_bytes{op="Fu1D"} 123' in body.decode()

    def test_hook_exception_degrades_scrape_not_fails(self, enabled):
        obs.counter("survives_total").inc()

        def bad_hook():
            raise RuntimeError("collector exploded")

        with TelemetryServer(collect=[bad_hook]) as srv:
            status, _, body = _get(srv.url + "/metrics")
            _, _, snap = _get(srv.url + "/snapshot")
        assert status == 200
        assert "survives_total 1" in body.decode()
        assert json.loads(snap)["meta"]["hook_errors"] >= 1


class TestProbes:
    def test_healthz_always_ok(self, enabled):
        with TelemetryServer() as srv:
            status, _, body = _get(srv.url + "/healthz")
        assert (status, body) == (200, b"ok\n")

    def test_readyz_flips_503_then_recovers(self, enabled):
        state = {"ok": True}

        def saturation():
            return state["ok"], "fine" if state["ok"] else "queue saturated"

        saturation.probe_name = "queue"
        with TelemetryServer(readiness=[saturation]) as srv:
            status, ctype, body = _get(srv.url + "/readyz")
            assert (status, json.loads(body)["ready"]) == (200, True)
            assert ctype == "application/json"

            state["ok"] = False
            status, _, body = _get(srv.url + "/readyz")
            payload = json.loads(body)
            assert status == 503
            assert payload["ready"] is False
            assert payload["probes"]["queue"] == {
                "ok": False,
                "detail": "queue saturated",
            }

            state["ok"] = True  # recovery flips it straight back
            status, _, _ = _get(srv.url + "/readyz")
            assert status == 200

    def test_probe_raising_counts_as_failing(self, enabled):
        def broken():
            raise OSError("backend gone")

        with TelemetryServer(readiness=[broken]) as srv:
            status, _, body = _get(srv.url + "/readyz")
        assert status == 503
        assert "OSError" in json.loads(body)["probes"]["broken"]["detail"]


class TestSnapshot:
    def test_snapshot_is_report_compatible(self, enabled):
        obs.counter("memo_chunks_total", op="Fu1D", case="miss").inc(2)
        with obs.span("sweep.Fu1D", chunk=0):
            pass
        with TelemetryServer(name="unit") as srv:
            status, ctype, body = _get(srv.url + "/snapshot")
        assert (status, ctype) == (200, "application/json")
        payload = json.loads(body)
        assert payload["meta"]["server"] == "unit"
        assert payload["meta"]["obs_enabled"] is True
        assert any(s["name"] == "sweep.Fu1D" for s in payload["spans"])
        # the same shape load_jsonl produces — build_report eats it directly
        report = build_report(payload)
        assert any(r["name"] == "memo_chunks_total" for r in report["scalars"])
        assert any(r["name"] == "sweep.Fu1D" for r in report["spans"])

    def test_report_cli_reads_a_plane_beside_jsonl_dumps(self, enabled, tmp_path, capsys):
        """``python -m repro.obs report dump.jsonl host:port``: a telemetry
        target is fetched from ``/snapshot`` and merged with the files."""
        from repro.obs.__main__ import main as obs_main

        dump = tmp_path / "earlier.jsonl"
        obs.dump_jsonl(str(dump), snapshot=[], spans=[
            {"name": "from.file", "span_id": 1, "parent_id": None, "trace_id": 1,
             "start_s": 0.0, "dur_s": 0.001, "proc": "other-proc"},
        ])
        with obs.span("from.plane"):
            pass
        with TelemetryServer(name="unit") as srv:
            host, port = srv.address
            assert obs_main(["report", "--json", str(dump), f"{host}:{port}"]) == 0
        names = {r["name"] for r in json.loads(capsys.readouterr().out)["spans"]}
        assert {"from.file", "from.plane"} <= names

    def test_unknown_path_404(self, enabled):
        with TelemetryServer() as srv:
            status, _, _ = _get(srv.url + "/nope")
        assert status == 404


class TestAddressValidation:
    @pytest.mark.parametrize("bad", ["no-port", ("::1", 80, 0)])
    def test_same_rejection_message_as_memo_daemon(self, bad):
        try:
            parse_address(bad)
        except (TypeError, ValueError) as exc:
            expected = str(exc)
        with pytest.raises((TypeError, ValueError), match=None) as err:
            TelemetryServer(bad)
        assert str(err.value) == expected


class TestRuntimeLifecycle:
    def test_obsconfig_http_port_starts_and_reset_stops(self):
        obs.configure(ObsConfig(enabled=True, http_port=0))
        srv = obs.telemetry_server()
        assert srv is not None
        url = srv.url
        status, _, _ = _get(url + "/healthz")
        assert status == 200
        obs.reset()
        assert obs.telemetry_server() is None
        with pytest.raises(OSError):
            urllib.request.urlopen(url + "/healthz", timeout=1.0)

    def test_disabled_runtime_starts_nothing(self):
        obs.configure(ObsConfig(enabled=False, http_port=0))
        assert obs.telemetry_server() is None

    def test_reconfigure_replaces_server(self):
        obs.configure(ObsConfig(enabled=True, http_port=0))
        first = obs.telemetry_server()
        obs.configure(ObsConfig(enabled=True, http_port=0))
        second = obs.telemetry_server()
        assert second is not first
        with pytest.raises(OSError):
            urllib.request.urlopen(first.url + "/healthz", timeout=1.0)
        status, _, _ = _get(second.url + "/healthz")
        assert status == 200
