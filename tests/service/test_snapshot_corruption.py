"""Crash-safe snapshot I/O: corruption detection, quarantine, cold start.

The robustness contract: every way a snapshot can rot on disk — a truncated
file, a bit flipped in the header or the payload, junk, a vanished file —
surfaces as :class:`SnapshotError` on read; a save interrupted at any step
leaves the previous snapshot as it was; warm-start consumers (the solver,
the scheduler, the server daemon) quarantine the evidence to
``<path>.corrupt`` and cold-start instead of dying or silently serving a
damaged tier.
"""

from __future__ import annotations

import hashlib
import os
import struct

import pytest

import repro.service.snapshot as snapshot_module
from repro.core import MemoConfig, MLRConfig, MLRSolver
from repro.core.memo_engine import memo_state_partitions
from repro.faults import FaultPlan, FaultRule
from repro.faults import runtime as faults
from repro.kvstore.serialization import encode_tree
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


HEADER_BYTES = 82  # magic 8 | version 2 | kind 32 | length 8 | sha256 32


def damage(snapshot_dir, edit) -> None:
    """Rewrite the snapshot's one file through ``edit(raw) -> raw``."""
    target = snapshot_dir / "snapshot.mlr"
    target.write_bytes(bytes(edit(bytearray(target.read_bytes()))))


def flip(offset: int):
    def edit(raw: bytearray) -> bytearray:
        raw[offset] ^= 0x40
        return raw

    return edit


class TestReadDetectsCorruption:
    def test_truncated_file(self, snapshot_dir):
        damage(snapshot_dir, lambda raw: raw[: len(raw) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(snapshot_dir, expect_kind="memo-state")

    def test_bitflipped_header(self, snapshot_dir):
        damage(snapshot_dir, flip(HEADER_BYTES // 2))
        with pytest.raises(SnapshotError):
            read_snapshot(snapshot_dir, expect_kind="memo-state")

    def test_bitflipped_payload(self, snapshot_dir):
        """A flipped payload bit leaves a file of the right format, version,
        kind and length — only the SHA-256 over its bytes can tell."""
        size = os.path.getsize(snapshot_dir / "snapshot.mlr")
        damage(snapshot_dir, flip((HEADER_BYTES + size) // 2))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(snapshot_dir, expect_kind="memo-state")

    def test_stored_digest_disagrees_with_content(self, snapshot_dir):
        def zero_digest(raw: bytearray) -> bytearray:
            raw[HEADER_BYTES - 32 : HEADER_BYTES] = bytes(32)
            return raw

        damage(snapshot_dir, zero_digest)
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(snapshot_dir, expect_kind="memo-state")

    def test_junk_bytes(self, snapshot_dir):
        damage(snapshot_dir, lambda raw: b"not a snapshot at all" * 8)
        with pytest.raises(SnapshotError, match="not an mLR snapshot"):
            read_snapshot(snapshot_dir, expect_kind="memo-state")

    def test_missing_file_reads_as_no_snapshot(self, snapshot_dir):
        os.unlink(snapshot_dir / "snapshot.mlr")
        with pytest.raises(SnapshotError, match="missing"):
            read_snapshot(snapshot_dir)

    def test_overdeep_payload_is_a_snapshot_error(self, snapshot_dir):
        """A well-formed, correctly checksummed file whose payload nests
        5000 lists deep: refused by the codec's depth bound, typed — never
        a ``RecursionError`` out of a boot path."""
        payload = b"l\x01\0\0\0" * 5000 + b"N"
        prefix = struct.pack(
            "<8sH32sQ", b"mLRsnap\0", snapshot_module.SNAPSHOT_VERSION,
            b"memo-state", len(payload),
        )
        digest = hashlib.sha256(prefix + payload).digest()
        damage(snapshot_dir, lambda raw: prefix + digest + payload)
        with pytest.raises(SnapshotError, match="nests deeper"):
            read_snapshot(snapshot_dir, expect_kind="memo-state")

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

    def test_fault_injected_read_corruption_is_caught(self, snapshot_dir):
        plan = FaultPlan(5, (FaultRule("snapshot:read:*", "bitflip"),))
        with faults.injected_faults(plan):
            with pytest.raises(SnapshotError):
                read_snapshot(snapshot_dir, expect_kind="memo-state")
        assert plan.trace, "the read-path fault never fired"
        read_snapshot(snapshot_dir, expect_kind="memo-state")  # disk is intact


class _Crash(BaseException):
    """The process dying mid-save: no ``except OSError`` clean-up runs."""


class _Interrupted:
    """Stand-in for one primitive of the durable write that raises
    ``failure`` on its ``nth`` call (never, for ``nth=None``)."""

    def __init__(self, real, failure=None, nth=None) -> None:
        self.real, self.failure, self.nth = real, failure, nth
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.nth:
            raise self.failure(f"interrupted at call {self.nth}")
        return self.real(*args, **kwargs)


class _TornFile:
    """A file open for writing whose ``write`` goes through ``step`` and,
    when that raises, has already put half the bytes on disk."""

    def __init__(self, fh, step) -> None:
        self.fh, self.step = fh, step

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def write(self, raw) -> None:
        try:
            self.step()
        except BaseException:
            self.fh.write(raw[: len(raw) // 2])
            raise
        self.fh.write(raw)


class TestDurableWrite:
    def test_no_temp_files_left_behind(self, snapshot_dir):
        assert os.listdir(snapshot_dir) == ["snapshot.mlr"]

    def test_rewrite_over_existing_snapshot(self, snapshot_tree, snapshot_dir):
        write_snapshot(snapshot_dir, snapshot_tree, kind="memo-state")
        tree = read_snapshot(snapshot_dir, expect_kind="memo-state")
        assert memo_state_partitions(tree)

    def save_interrupted(self, monkeypatch, path, tree, step, failure, nth):
        """Save ``tree`` with the ``nth`` call of one durable-write
        primitive raising ``failure``; returns ``(calls made, renamed)``."""
        interrupt = _Interrupted(
            (lambda: None) if step == "write" else getattr(os, step), failure, nth
        )
        real_replace, renamed = os.replace, []

        def replace(src, dst):
            (interrupt if step == "replace" else real_replace)(src, dst)
            renamed.append(dst)

        with monkeypatch.context() as patch:
            if step == "write":
                patch.setattr(
                    snapshot_module, "open",
                    lambda name, mode: _TornFile(open(name, mode), interrupt)
                    if "w" in mode else open(name, mode),
                    raising=False,
                )
            elif step == "fsync":
                patch.setattr(os, "fsync", interrupt)
            patch.setattr(os, "replace", replace)
            try:
                write_snapshot(path, tree, kind="memo-state")
            except failure:
                pass
        return interrupt.calls, bool(renamed)

    @pytest.mark.parametrize("failure", [OSError, _Crash])
    @pytest.mark.parametrize("step", ["write", "fsync", "replace"])
    def test_interrupted_save_leaves_a_whole_snapshot(
        self, snapshot_tree, tmp_path, monkeypatch, step, failure
    ):
        """Interrupt a save over an existing snapshot at every call of
        every primitive of the durable write — half-way through the temp
        file, at an fsync, at the rename: the directory then reads back as
        exactly the previous tree, bit for bit, or (interrupted after the
        rename) exactly the new one — never an error, never a mix."""
        path = tmp_path / "tier"
        newer = {"n_shards": 1, "partitions": [], "note": "the newer tree"}
        clean_calls, renamed = self.save_interrupted(
            monkeypatch, tmp_path / "dry-run", newer, step, failure, None
        )
        assert clean_calls > 0 and renamed
        for nth in range(1, clean_calls + 1):
            write_snapshot(path, snapshot_tree, kind="memo-state")
            before = read_snapshot(path, expect_kind="memo-state")
            _, renamed = self.save_interrupted(
                monkeypatch, path, newer, step, failure, nth
            )
            # one tree has one encoding: equal bytes is node-for-node equal
            after = read_snapshot(path, expect_kind="memo-state")
            assert encode_tree(after) == encode_tree(newer if renamed else before)
            if failure is OSError:  # survivable: the temp file is cleaned up
                assert os.listdir(path) == ["snapshot.mlr"]


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
        (snapshot_dir / "snapshot.mlr").write_bytes(b"not a snapshot at all")
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
        (snapshot_dir / "snapshot.mlr").write_bytes(b"junk")
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
        (snapshot_dir / "snapshot.mlr").write_bytes(b"junk")
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
        (snapshot_dir / "snapshot.mlr").write_bytes(b"junk")
        with MemoServerDaemon(
            memo=MemoConfig(**MEMO), snapshot_path=str(snapshot_dir)
        ) as srv:
            assert srv.stats.snapshots_quarantined == 1
            assert srv.router.entries() == 0  # cold boot
        assert os.path.isdir(f"{snapshot_dir}.corrupt")

    def test_daemon_quarantines_a_previous_version_file(self, snapshot_dir):
        """A version-3 file (the per-shard tree) has no reader here: it is
        refused by version — before its checksum or a payload byte is
        looked at — and takes the quarantine -> cold-start path."""
        damage(snapshot_dir, lambda raw: raw[:8] + struct.pack("<H", 3) + raw[10:])
        with pytest.raises(SnapshotError, match="unsupported snapshot version 3"):
            read_snapshot(snapshot_dir, expect_kind="memo-state")
        with MemoServerDaemon(
            memo=MemoConfig(**MEMO), snapshot_path=str(snapshot_dir)
        ) as srv:
            assert srv.stats.snapshots_quarantined == 1
            assert srv.router.entries() == 0
        assert os.path.isdir(f"{snapshot_dir}.corrupt")

    def test_daemon_quarantines_a_pre_v3_directory(self, tmp_path):
        """A manifest + npz directory is a snapshot this build cannot read:
        moved aside whole like any other unusable one, so the daemon's own
        saves land in a directory that holds exactly one file."""
        old = tmp_path / "tier"
        old.mkdir()
        (old / "manifest.json").write_text('{"format": "mlr-snapshot", "version": 2}')
        (old / "arrays.npz").write_bytes(b"PK")
        with MemoServerDaemon(
            memo=MemoConfig(**MEMO), snapshot_path=str(old)
        ) as srv:
            assert srv.stats.snapshots_quarantined == 1
        assert sorted(os.listdir(f"{old}.corrupt")) == ["arrays.npz", "manifest.json"]
        assert os.listdir(old) == ["snapshot.mlr"]  # the shutdown save

    def test_daemon_boots_cold_where_nothing_was_saved(self, tmp_path):
        with MemoServerDaemon(
            memo=MemoConfig(**MEMO), snapshot_path=str(tmp_path / "fresh")
        ) as srv:
            assert srv.stats.snapshots_quarantined == 0
        assert counter_total("snapshot_quarantined_total") == 0
