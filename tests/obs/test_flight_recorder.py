"""Black-box flight recorder.

The span rings double as an always-on bounded flight recorder: on a
fault — job failure, snapshot quarantine, circuit-breaker open —
``obs.flight_dump()`` writes the recent spans plus a full metrics
snapshot to a JSONL artifact (the exact format ``python -m repro.obs
report`` stitches), so a chaos failure ships its own evidence.  These
tests cover the dump mechanics (peek-not-drain, meta block, counter,
never-raises) and the three production trigger points.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.core import MLRConfig, MemoConfig, ObsConfig
from repro.core.memo_shard import ShardQuery
from repro.lamino import LaminoGeometry
from repro.net import MemoServerDaemon, connect_tier
from repro.net.policy import RetryPolicy
from repro.obs import runtime as obs
from repro.obs.report import report_from_file
from repro.service import JobSpec, JobState, ReconstructionScheduler, ServiceConfig
from repro.solvers import ADMMConfig


def flight_files(root) -> list[str]:
    return sorted(
        str(p) for p in os.listdir(root) if str(p).startswith("flight-")
    )


class TestDumpMechanics:
    def test_dump_writes_report_compatible_artifact(self, tmp_path):
        obs.configure(ObsConfig(flight_dir=str(tmp_path)))
        with obs.span("doomed.op", stage=3):
            pass
        obs.counter("witness_total").inc(7)
        path = obs.flight_dump("unit-test", job="j1", attempts=2)
        assert path is not None and os.path.isfile(path)
        base = os.path.basename(path)
        assert base.startswith("flight-unit-test-") and base.endswith(".jsonl")
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(l) for l in fh if l.strip()]
        meta = lines[0]
        assert meta["flight"]["reason"] == "unit-test"
        assert meta["flight"]["attrs"] == {"job": "j1", "attempts": 2}
        assert meta["flight"]["unix"] > 0
        names = {r.get("name") for r in lines[1:]}
        assert "doomed.op" in names and "witness_total" in names
        # the artifact is the report's native input
        text = report_from_file(path)
        assert "doomed.op" in text
        # and the recorder counts itself
        dumps = [
            e for e in obs.snapshot() if e["name"] == "flight_dumps_total"
        ]
        assert dumps and dumps[0]["labels"] == {"reason": "unit-test"}

    def test_dump_peeks_spans_without_draining(self, tmp_path):
        obs.configure(ObsConfig(flight_dir=str(tmp_path)))
        with obs.span("kept.op"):
            pass
        assert obs.flight_dump("peek") is not None
        spans, _ = obs.drain_spans()
        # the dump did not consume them: live tracing is undisturbed
        assert [s["name"] for s in spans] == ["kept.op"]

    def test_no_dir_means_no_recorder(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
        obs.configure(ObsConfig())
        assert obs.flight_dir() is None
        assert obs.flight_dump("nowhere") is None

    def test_disabled_obs_means_no_recorder(self, tmp_path):
        obs.configure(ObsConfig(enabled=False, flight_dir=str(tmp_path)))
        assert obs.flight_dir() is None
        assert obs.flight_dump("dark") is None
        assert flight_files(tmp_path) == []

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        obs.configure(ObsConfig())
        assert obs.flight_dir() == str(tmp_path)
        assert obs.flight_dump("env-test") is not None
        assert len(flight_files(tmp_path)) == 1

    def test_unwritable_dir_never_raises(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        obs.configure(ObsConfig(flight_dir=str(blocker)))
        assert obs.flight_dump("full-disk") is None  # logged, swallowed


class TestProductionTriggers:
    def test_job_failure_dumps_flight(self, tmp_path):
        obs.configure(ObsConfig(flight_dir=str(tmp_path)))
        n = 12
        geometry = LaminoGeometry(
            (n, n, n), n_angles=8, det_shape=(n, n), tilt_deg=61.0
        )

        def doomed() -> np.ndarray:
            raise OSError("scan volume unavailable")

        spec = JobSpec(
            name="doomed", geometry=geometry, projections=doomed,
            config=MLRConfig(
                chunk_size=4,
                memo=MemoConfig(tau=0.9, warmup_iterations=1,
                                index_train_min=8, index_clusters=4,
                                index_nprobe=2),
            ),
            admm=ADMMConfig(n_outer=2, n_inner=2, step_max_rel=4.0),
            max_retries=1,
        )
        with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
            handle = sched.submit(spec)
            assert handle.wait(120.0)
        assert handle.state is JobState.FAILED
        files = flight_files(tmp_path)
        assert len(files) == 1 and files[0].startswith("flight-job-failure-")
        with open(tmp_path / files[0], encoding="utf-8") as fh:
            meta = json.loads(fh.readline())
        assert meta["flight"]["attrs"]["job"] == "doomed"
        assert meta["flight"]["attrs"]["attempts"] == 2  # original + 1 retry
        assert "OSError" in meta["flight"]["attrs"]["error"]

    def test_circuit_breaker_open_dumps_flight(self, tmp_path):
        obs.configure(ObsConfig(flight_dir=str(tmp_path)))
        with MemoServerDaemon(n_shards=1, name="victim") as d:
            address = d.address
        # daemon closed: next contact trips the breaker immediately
        rc = connect_tier(
            [address], replication=1,
            retry_policy=RetryPolicy(failure_threshold=1, reset_timeout_s=30.0),
        )
        try:
            key = np.zeros(8, np.float32)
            rc.query_batch([ShardQuery("Fu1D", 0, key)])
        finally:
            rc.close()
        files = flight_files(tmp_path)
        assert files and files[0].startswith("flight-circuit-open-")
        with open(tmp_path / files[0], encoding="utf-8") as fh:
            meta = json.loads(fh.readline())
        attrs = meta["flight"]["attrs"]
        assert attrs["replica"] == f"{address[0]}:{address[1]}"
        assert attrs["error"]

    def test_breaker_reopen_does_not_redump(self, tmp_path):
        """The dump fires on the closed->open *edge*, not on every failure
        while open — a flapping replica must not flood the artifact dir."""
        obs.configure(ObsConfig(flight_dir=str(tmp_path)))
        with MemoServerDaemon(n_shards=1, name="victim") as d:
            address = d.address
        rc = connect_tier(
            [address], replication=1,
            retry_policy=RetryPolicy(failure_threshold=1, reset_timeout_s=30.0),
        )
        try:
            key = np.zeros(8, np.float32)
            for _ in range(5):  # breaker stays open: calls degrade silently
                rc.query_batch([ShardQuery("Fu1D", 0, key)])
        finally:
            rc.close()
        assert len(flight_files(tmp_path)) == 1  # one trip, one artifact
