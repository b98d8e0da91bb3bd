"""End-to-end instrumentation: a quick MLRSolver run over TCP produces a
JSONL dump whose report covers every tier (FFT, interp, ANN query, queue
wait, wire round trip) and whose memo gauges reconcile exactly with
MemoDBStats."""

from __future__ import annotations

import pytest

from repro.core import MemoConfig, MLRConfig, MLRSolver, ObsConfig, PipelineConfig
from repro.core.memo_db import MemoDBStats
from repro.net import MemoServerDaemon
from repro.obs import dump_jsonl, load_jsonl, load_report, render_report
from repro.obs import runtime as obs
from repro.solvers import ADMMConfig

ADMM = ADMMConfig(n_outer=5, n_inner=2, step_max_rel=4.0)


def memo_cfg(**over) -> MemoConfig:
    base = dict(tau=0.92, warmup_iterations=1, index_train_min=4,
                index_clusters=2, index_nprobe=2)
    base.update(over)
    return MemoConfig(**base)


@pytest.fixture()
def tcp_run(tiny_geometry, tiny_ops, tiny_data):
    """One quick reconstruction over loopback TCP with obs enabled;
    yields (solver, result) with the transport still up."""
    with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
        cfg = MLRConfig(
            chunk_size=4,
            memo=memo_cfg(transport="tcp", server_address=srv.address),
            n_workers=2, n_shards=2,
            obs=ObsConfig(),
        )
        solver = MLRSolver(tiny_geometry, cfg, admm=ADMM, ops=tiny_ops)
        result = solver.reconstruct(tiny_data)
        yield solver, result
        solver.close()


def series(snapshot, name):
    return [e for e in snapshot if e["name"] == name]


class TestSolverTcpAcceptance:
    def test_every_tier_appears_in_the_report(self, tcp_run, tmp_path):
        _solver, _result = tcp_run
        path = tmp_path / "run.jsonl"
        dump_jsonl(str(path))
        text = render_report(load_report(str(path)))
        # per-stage latency table covers every tier of the stack
        for stage in ("solver.reconstruct", "admm.outer", "sweep.Fu1D",
                      "usfft.fft", "usfft.interp", "memo.ann_query",
                      "memo.dispatch"):
            assert stage in text, stage
        # wire round trip (client side) and per-op hit counters ride along
        assert "net_client_request_seconds" in text
        assert "memo_chunks_total" in text

    def test_span_tree_is_rooted_at_the_solver(self, tcp_run):
        _solver, _result = tcp_run
        spans, dropped = obs.drain_spans()
        by_id = {rec["span_id"]: rec for rec in spans}

        def root_of(rec):
            while rec["parent_id"] is not None and rec["parent_id"] in by_id:
                rec = by_id[rec["parent_id"]]
            return rec["name"]

        outers = [r for r in spans if r["name"] == "admm.outer"]
        assert len(outers) == ADMM.n_outer
        assert all(root_of(r) == "solver.reconstruct" for r in outers)
        sweeps = [r for r in spans if r["name"].startswith("sweep.")]
        assert sweeps and all(root_of(r) == "solver.reconstruct" for r in sweeps)

    def test_memo_gauges_reconcile_exactly_with_db_stats(self, tcp_run):
        solver, _result = tcp_run
        snapshot = obs.snapshot()
        per_op = []
        for op in solver.config.memo.memo_ops:
            stats = solver.memo_executor.db_stats(op)
            per_op.append(stats)
            expected = stats.as_dict()
            got = {
                e["name"]: e["value"]
                for e in snapshot
                if e["labels"].get("op") == op and e["name"].startswith("memo_db_")
            }
            for field_name, value in expected.items():
                assert got[f"memo_db_{field_name}"] == value, (op, field_name)
        merged = MemoDBStats.merged(per_op).as_dict()
        got_all = {
            e["name"]: e["value"]
            for e in snapshot
            if e["labels"].get("op") == "all" and e["name"].startswith("memo_db_")
        }
        for field_name, value in merged.items():
            assert got_all[f"memo_db_{field_name}"] == value

    def test_chunk_counters_reconcile_with_case_counts(self, tcp_run):
        _solver, result = tcp_run
        counted: dict = {}
        for e in obs.snapshot():
            if e["name"] == "memo_chunks_total":
                case = e["labels"]["case"]
                counted[case] = counted.get(case, 0) + int(e["value"])
        assert counted == dict(result.case_counts)

    def test_dump_meta_reports_no_drops_at_quick_scale(self, tcp_run, tmp_path):
        path = tmp_path / "run.jsonl"
        dump_jsonl(str(path))
        data = load_jsonl(str(path))
        assert data["meta"]["dropped_spans"] == 0
        assert any(s["name"] == "usfft.fft" for s in data["spans"])


class TestPipelinedTier:
    def test_pipeline_and_queue_metrics_appear(self, tiny_geometry, tiny_ops,
                                               tiny_data):
        cfg = MLRConfig(
            chunk_size=4,
            memo=memo_cfg(),
            pipeline=PipelineConfig(queue_depth=2),
            obs=ObsConfig(),
        )
        solver = MLRSolver(tiny_geometry, cfg, admm=ADMM, ops=tiny_ops)
        solver.reconstruct(tiny_data)
        snapshot = obs.snapshot()
        names = {e["name"] for e in snapshot}
        assert "pipeline_queue_depth" in names
        assert "pipeline_sweeps" in names
        assert "pipeline_items" in names
        # per-op cumulative totals match the executor's own stats
        agg = solver.executor.pipeline_stats()
        total_items = sum(
            e["value"]
            for e in snapshot
            if e["name"] == "pipeline_items" and "op" in e["labels"]
        )
        assert total_items == agg.items
        spans, _ = obs.drain_spans()
        stage_names = {rec["name"] for rec in spans}
        assert {"pipeline.run", "pipeline.reader", "pipeline.writer",
                "pipeline.compute"} <= stage_names
        solver.close()


class TestSchedulerTier:
    def test_job_spans_and_scheduler_gauges(self, tiny_geometry, tiny_data):
        from repro.service import JobSpec, ReconstructionScheduler, ServiceConfig

        obs.configure(ObsConfig())
        with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
            job = sched.submit(
                JobSpec("obs-job", tiny_geometry, tiny_data,
                        config=MLRConfig(chunk_size=4, memo=memo_cfg()),
                        admm=ADMM)
            )
            job.wait()
        spans, _ = obs.drain_spans()
        runs = [r for r in spans if r["name"] == "job.run"]
        assert len(runs) == 1
        assert runs[0]["attrs"]["job"] == "obs-job"
        names = {e["name"] for e in obs.snapshot()}
        assert "scheduler_queue_depth" in names
        assert "scheduler_running" in names
        assert "scheduler_completed" in names

    def test_job_events_carry_monotonic_and_wall_clocks(self, tiny_geometry,
                                                        tiny_data):
        import time

        from repro.service import JobSpec, ReconstructionScheduler, ServiceConfig

        wall_before = time.time()
        with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
            job = sched.submit(
                JobSpec("clock-job", tiny_geometry, tiny_data,
                        config=MLRConfig(chunk_size=4, memo=memo_cfg()),
                        admm=ADMM)
            )
            job.wait()
        wall_after = time.time()
        kinds = [ev.kind for ev in job.events]
        assert kinds[0] == "submitted" and "done" in kinds
        ts = [ev.t for ev in job.events]
        assert ts == sorted(ts)  # durations come from the monotonic clock
        for ev in job.events:
            assert wall_before <= ev.wall <= wall_after  # display-only wall
