"""Crash-safe snapshot I/O: corruption detection, quarantine, cold start.

The robustness contract: every way a snapshot can rot on disk — truncated
arrays, a bit-flipped manifest, a vanished partition file — surfaces as
:class:`SnapshotError` on read; warm-start consumers (the solver, the
scheduler, the server daemon) quarantine the evidence to ``<path>.corrupt``
and cold-start instead of dying or silently serving a damaged tier.
"""

from __future__ import annotations

import os

import pytest

from repro.core import MemoConfig, MLRConfig, MLRSolver
from repro.core.memo_engine import memo_state_partitions
from repro.faults import FaultPlan, FaultRule
from repro.faults import runtime as faults
from repro.lamino import LaminoGeometry, brain_like, simulate_data
from repro.net import MemoServerDaemon
from repro.obs import ObsConfig
from repro.obs import runtime as obs
from repro.service import (
    JobSpec,
    JobState,
    ReconstructionScheduler,
    ServiceConfig,
    SnapshotError,
    load_memo_snapshot,
    quarantine_snapshot,
    read_snapshot,
    save_memo_snapshot,
    write_snapshot,
)
from repro.solvers import ADMMConfig

WAIT = 120.0
MEMO = dict(tau=0.9, warmup_iterations=1, index_train_min=8,
            index_clusters=4, index_nprobe=2)
ADMM = ADMMConfig(n_outer=3, n_inner=2, step_max_rel=4.0)


@pytest.fixture(autouse=True)
def pristine(request):
    faults.uninstall()
    obs.reset()
    yield
    faults.uninstall()
    obs.reset()


@pytest.fixture(scope="module")
def problem():
    n = 12
    geometry = LaminoGeometry((n, n, n), n_angles=8, det_shape=(n, n), tilt_deg=61.0)
    data = simulate_data(brain_like(geometry.vol_shape, seed=7), geometry,
                         noise_level=0.02, seed=1)
    return geometry, data


def config(**over) -> MLRConfig:
    return MLRConfig(chunk_size=4, memo=MemoConfig(**MEMO), **over)


@pytest.fixture(scope="module")
def snapshot_tree(problem):
    """A real memo-state tree from a completed small reconstruction."""
    geometry, data = problem
    solver = MLRSolver(geometry, config(), admm=ADMM)
    solver.reconstruct(data)
    return solver.memo_executor.memo_state()


@pytest.fixture()
def snapshot_dir(snapshot_tree, tmp_path):
    path = tmp_path / "snap"
    write_snapshot(path, snapshot_tree, kind="memo-state")
    return path


def counter_total(name: str) -> float:
    return sum(e["value"] for e in obs.snapshot() if e["name"] == name)


class TestReadDetectsCorruption:
    def test_truncated_arrays(self, snapshot_dir):
        arrays = snapshot_dir / "arrays.npz"
        raw = arrays.read_bytes()
        arrays.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotError, match="arrays"):
            read_snapshot(snapshot_dir, expect_kind="memo-state")

    def test_bitflipped_manifest(self, snapshot_dir):
        manifest = snapshot_dir / "manifest.json"
        raw = bytearray(manifest.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        manifest.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            read_snapshot(snapshot_dir, expect_kind="memo-state")

    def test_checksum_drift_in_arrays(self, snapshot_dir):
        """A payload bit-flip that keeps the zip container readable is
        still caught by the per-array SHA-256 checksums."""
        manifest = snapshot_dir / "manifest.json"
        text = manifest.read_text()
        # corrupt one stored checksum: content vs manifest now disagree
        import json

        doc = json.loads(text)
        name = next(iter(doc["arrays"]))
        doc["arrays"][name]["sha256"] = "0" * 64
        manifest.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(snapshot_dir, expect_kind="memo-state")

    def test_deleted_partition_file(self, snapshot_dir):
        os.unlink(snapshot_dir / "arrays.npz")
        with pytest.raises(SnapshotError, match="arrays"):
            read_snapshot(snapshot_dir, expect_kind="memo-state")

    def test_missing_manifest_reads_as_no_snapshot(self, snapshot_dir):
        os.unlink(snapshot_dir / "manifest.json")
        with pytest.raises(SnapshotError, match="missing"):
            read_snapshot(snapshot_dir)

    def test_fault_injected_write_corruption_is_caught(
        self, snapshot_tree, tmp_path
    ):
        """A seeded bitflip on the snapshot write path (the chaos suite's
        disk-fault model) is detected on the very next read."""
        path = tmp_path / "faulted"
        plan = FaultPlan(3, (FaultRule("snapshot:write:*", "bitflip"),))
        with faults.injected_faults(plan):
            write_snapshot(path, snapshot_tree, kind="memo-state")
        assert plan.trace, "the write-path fault never fired"
        with pytest.raises(SnapshotError):
            read_snapshot(path, expect_kind="memo-state")


class TestDurableWrite:
    def test_no_temp_files_left_behind(self, snapshot_dir):
        leftovers = [f for f in os.listdir(snapshot_dir) if ".tmp." in f]
        assert leftovers == []

    def test_rewrite_over_existing_snapshot(self, snapshot_tree, snapshot_dir):
        write_snapshot(snapshot_dir, snapshot_tree, kind="memo-state")
        tree = read_snapshot(snapshot_dir, expect_kind="memo-state")
        assert memo_state_partitions(tree)


class TestQuarantine:
    def test_quarantine_moves_aside_and_numbers(self, snapshot_dir):
        dest = quarantine_snapshot(snapshot_dir)
        assert dest == f"{snapshot_dir}.corrupt" and os.path.isdir(dest)
        assert not os.path.exists(snapshot_dir)
        # a second corruption of the same path gets a numbered slot
        os.makedirs(snapshot_dir)
        assert quarantine_snapshot(snapshot_dir) == f"{snapshot_dir}.corrupt.2"

    def test_quarantine_of_nothing_is_none(self, tmp_path):
        assert quarantine_snapshot(tmp_path / "ghost") is None


class TestSolverColdStart:
    def test_corrupt_warm_start_quarantines_and_runs_cold(
        self, problem, snapshot_dir
    ):
        obs.configure(ObsConfig())
        geometry, data = problem
        (snapshot_dir / "arrays.npz").write_bytes(b"not a zip at all")
        solver = MLRSolver(
            geometry, config(memo_snapshot=str(snapshot_dir)), admm=ADMM
        )
        assert solver.snapshot_quarantined
        assert solver.memo_executor.db_entries_total() == 0  # cold
        assert not os.path.exists(snapshot_dir)  # moved aside
        assert os.path.isdir(f"{snapshot_dir}.corrupt")
        assert counter_total("snapshot_quarantined_total") == 1
        result = solver.reconstruct(data)  # and the job still completes
        assert result.u.shape == geometry.vol_shape

    def test_intact_warm_start_is_untouched(self, problem, snapshot_dir):
        geometry, _data = problem
        solver = MLRSolver(
            geometry, config(memo_snapshot=str(snapshot_dir)), admm=ADMM
        )
        assert not solver.snapshot_quarantined
        assert solver.memo_executor.db_entries_total() > 0
        assert os.path.isdir(snapshot_dir)

    def test_explicit_load_still_raises(self, snapshot_dir):
        """Only the warm-start path degrades; a direct load call is an
        explicit request and keeps failing loudly."""
        (snapshot_dir / "arrays.npz").write_bytes(b"junk")
        with pytest.raises(SnapshotError):
            load_memo_snapshot(snapshot_dir)


class TestSchedulerEvents:
    def job(self, problem, name: str, **config_over) -> JobSpec:
        geometry, data = problem
        return JobSpec(
            name=name, geometry=geometry, projections=data,
            config=config(**config_over), admm=ADMM,
        )

    def test_job_records_snapshot_quarantined_event(self, problem, snapshot_dir):
        (snapshot_dir / "arrays.npz").write_bytes(b"junk")
        with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
            handle = sched.submit(
                self.job(problem, "corrupt-snap", memo_snapshot=str(snapshot_dir))
            )
            assert handle.wait(WAIT)
        assert handle.state is JobState.DONE
        kinds = [ev.kind for ev in handle.events]
        assert "snapshot_quarantined" in kinds
        assert str(snapshot_dir) in next(
            ev.detail for ev in handle.events if ev.kind == "snapshot_quarantined"
        )

    def test_incompatible_shared_tier_seeds_cold_with_event(self, problem):
        """A shared tier the job's memo config rejects (tau skew) means a
        ``seed_failed`` event and a cold — but DONE — job."""
        obs.configure(ObsConfig())
        geometry, data = problem
        hot_tau = MemoConfig(**{**MEMO, "tau": 0.95})
        donor = MLRSolver(
            geometry, MLRConfig(chunk_size=4, memo=hot_tau), admm=ADMM
        )
        donor.reconstruct(data)
        with ReconstructionScheduler(
            ServiceConfig(n_workers=1, share_memo=True)
        ) as sched:
            sched.memo_service.absorb(donor.memo_executor)
            handle = sched.submit(self.job(problem, "tau-skew"))
            assert handle.wait(WAIT)
        assert handle.state is JobState.DONE
        kinds = [ev.kind for ev in handle.events]
        assert "seed_failed" in kinds and "warm_start" not in kinds
        assert handle.db_entries_start == 0
        assert counter_total("job_seed_failed_total") == 1


class TestServerBoot:
    def test_daemon_quarantines_corrupt_boot_snapshot(
        self, snapshot_dir, snapshot_tree
    ):
        (snapshot_dir / "arrays.npz").write_bytes(b"junk")
        with MemoServerDaemon(
            memo=MemoConfig(**MEMO), snapshot_path=str(snapshot_dir)
        ) as srv:
            assert srv.stats.snapshots_quarantined == 1
            assert srv.router.entries() == 0  # cold boot
        assert os.path.isdir(f"{snapshot_dir}.corrupt")
