"""Exporters and the report CLI: Prometheus text, JSONL round-trip,
per-stage latency tables."""

from __future__ import annotations

import json

from repro.obs import (
    build_report,
    dump_jsonl,
    load_jsonl,
    load_report,
    render_report,
    to_prometheus,
)
from repro.obs import runtime as obs
from repro.obs.__main__ import main as obs_main


def populate():
    obs.counter("memo_chunks_total", op="Fu1D", case="db_hit").inc(7)
    obs.gauge("scheduler_queue_depth").set(3)
    h = obs.histogram("usfft_seconds", xform="1d_type2")
    for v in (1e-4, 2e-4, 4e-4, 8e-4):
        h.observe(v)
    with obs.span("sweep.Fu1D", chunk=0):
        pass
    with obs.span("sweep.Fu1D", chunk=1):
        pass


class TestPrometheus:
    def test_counter_gauge_histogram_rendering(self, enabled):
        populate()
        text = to_prometheus()
        assert '# TYPE memo_chunks_total counter' in text
        assert 'memo_chunks_total{case="db_hit",op="Fu1D"} 7' in text
        assert 'scheduler_queue_depth 3' in text
        assert 'scheduler_queue_depth_max 3' in text
        # cumulative buckets, +Inf, _count and _sum
        assert 'usfft_seconds_bucket{le="+Inf",xform="1d_type2"} 4' in text
        assert 'usfft_seconds_count{xform="1d_type2"} 4' in text
        assert 'usfft_seconds_sum{xform="1d_type2"} 0.0015' in text
        # every exposed name is legal Prometheus
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            assert name.replace("_", "").replace(":", "").isalnum()

    def test_cumulative_buckets_are_monotone(self, enabled):
        populate()
        counts = []
        for line in to_prometheus().splitlines():
            if line.startswith("usfft_seconds_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)
        assert counts[-1] == 4

    def test_samples_off_the_grid_land_in_the_edge_buckets(self, enabled):
        """Samples below ``histogram_min_s`` and above ``histogram_max_s``
        are counted, not dropped: the +Inf bucket equals ``_count``."""
        h = obs.histogram("lat_seconds")
        for dt in (1e-7, 1e-3, 1e-3, 0.5, 500.0):
            h.observe(dt)
        buckets, count = [], None
        for line in to_prometheus().splitlines():
            if line.startswith("lat_seconds_bucket"):
                buckets.append(int(line.rsplit(" ", 1)[1]))
            elif line.startswith("lat_seconds_count"):
                count = int(line.rsplit(" ", 1)[1])
        assert buckets == sorted(buckets)
        assert buckets[0] >= 1  # the sub-grid sample sits in the first bucket
        assert buckets[-1] == count == 5

    def test_empty_registry_renders_empty(self, enabled):
        assert to_prometheus() == ""


class TestJsonlRoundTrip:
    def test_dump_and_load(self, enabled, tmp_path):
        populate()
        path = tmp_path / "obs.jsonl"
        n = dump_jsonl(str(path))
        data = load_jsonl(str(path))
        assert data["meta"]["version"] == 1
        assert data["meta"]["dropped_spans"] == 0
        assert len(data["metrics"]) + len(data["spans"]) + 1 == n
        names = {m["name"] for m in data["metrics"]}
        assert names == {"memo_chunks_total", "scheduler_queue_depth", "usfft_seconds"}
        assert [s["name"] for s in data["spans"]] == ["sweep.Fu1D", "sweep.Fu1D"]
        # every line is valid standalone JSON with a rec discriminator
        with open(path) as fh:
            for raw in fh:
                assert json.loads(raw)["rec"] in ("meta", "metric", "span")

    def test_span_records_are_this_process_only(self, enabled, tmp_path):
        """A dump holds one process's spans: ids are distinct and no record
        names a process."""
        populate()
        path = tmp_path / "obs.jsonl"
        dump_jsonl(str(path))
        spans = load_jsonl(str(path))["spans"]
        assert len({s["span_id"] for s in spans}) == len(spans) == 2
        assert all("proc" not in s for s in spans)

    def test_dump_drains_the_collector(self, enabled, tmp_path):
        populate()
        dump_jsonl(str(tmp_path / "a.jsonl"))
        dump_jsonl(str(tmp_path / "b.jsonl"))
        data = load_jsonl(str(tmp_path / "b.jsonl"))
        assert data["spans"] == []  # the first dump consumed them

    def test_unknown_record_type_raises(self, enabled, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"rec": "mystery"}\n')
        try:
            load_jsonl(str(path))
        except ValueError as exc:
            assert "mystery" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_profile_record_of_an_older_dump_is_ignored(self, enabled, tmp_path):
        populate()
        path = tmp_path / "old.jsonl"
        dump_jsonl(str(path))
        with open(path, "a") as fh:
            fh.write('{"rec": "profile", "hz": 67.0, "samples": 3, "buckets": []}\n')
        data = load_jsonl(str(path))
        assert set(data) == {"meta", "metrics", "spans"}
        assert "sweep.Fu1D" in render_report(build_report(data))


class TestReport:
    def test_build_report_aggregates_spans_and_histograms(self, enabled, tmp_path):
        populate()
        path = tmp_path / "obs.jsonl"
        dump_jsonl(str(path))
        report = build_report(load_jsonl(str(path)))
        sweep = next(r for r in report["spans"] if r["name"] == "sweep.Fu1D")
        assert sweep["count"] == 2
        assert sweep["p50_s"] <= sweep["p95_s"] <= sweep["p99_s"]
        hist = next(r for r in report["histograms"] if r["name"] == "usfft_seconds")
        assert hist["count"] == 4
        assert 1e-4 <= hist["p50_s"] <= 8e-4
        scalar_names = {s["name"] for s in report["scalars"]}
        assert {"memo_chunks_total", "scheduler_queue_depth"} <= scalar_names

    def test_render_report_prints_stage_tables(self, enabled, tmp_path):
        populate()
        path = tmp_path / "obs.jsonl"
        dump_jsonl(str(path))
        text = render_report(load_report(str(path)))
        assert "== spans (per-stage latency) ==" in text
        assert "== histograms ==" in text
        assert "== counters / gauges ==" in text
        assert "sweep.Fu1D" in text
        assert "usfft_seconds" in text and "1d_type2" in text
        assert "p95" in text

    def test_dropped_spans_are_surfaced(self, enabled):
        report = build_report(
            {"meta": {"version": 1, "dropped_spans": 12}, "metrics": [], "spans": []}
        )
        assert "12" in render_report(report)


class TestCli:
    def test_report_command(self, enabled, tmp_path, capsys):
        populate()
        path = tmp_path / "obs.jsonl"
        dump_jsonl(str(path))
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sweep.Fu1D" in out and "== spans (per-stage latency) ==" in out

    def test_report_takes_one_dump(self, enabled, tmp_path, capsys):
        populate()
        path = tmp_path / "obs.jsonl"
        dump_jsonl(str(path))
        try:
            obs_main(["report", str(path), str(path)])
        except SystemExit as exc:
            assert exc.code == 2  # argparse: unrecognized argument
        else:
            raise AssertionError("expected a usage error")
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_report_json_mode(self, enabled, tmp_path, capsys):
        populate()
        path = tmp_path / "obs.jsonl"
        dump_jsonl(str(path))
        assert obs_main(["report", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"][0]["name"] == "sweep.Fu1D"
