"""Scheduler: concurrency, priority + FIFO, cancellation, admission, sharing."""

from __future__ import annotations

import re
import threading

import numpy as np
import pytest

from repro.core import MemoConfig, MLRConfig
from repro.core.memo_engine import memo_state_partitions
from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, simulate_data
from repro.lamino import operators as operators_module
from repro.service import (
    AdmissionError,
    JobSpec,
    JobState,
    ReconstructionScheduler,
    ServiceConfig,
    SharedMemoService,
)
from repro.solvers import ADMMConfig

WAIT = 120.0  # generous per-job timeout; tiny jobs run in well under a second


@pytest.fixture(scope="module")
def problem():
    n = 12
    geometry = LaminoGeometry((n, n, n), n_angles=8, det_shape=(n, n), tilt_deg=61.0)
    data = simulate_data(brain_like(geometry.vol_shape, seed=7), geometry,
                         noise_level=0.02, seed=1)
    return geometry, data


def spec(problem, name: str, priority: int = 0, n_outer: int = 2, projections=None,
         **spec_over) -> JobSpec:
    geometry, data = problem
    return JobSpec(
        name=name,
        geometry=geometry,
        projections=data if projections is None else projections,
        config=MLRConfig(
            chunk_size=4,
            memo=MemoConfig(tau=0.9, warmup_iterations=1, index_train_min=8,
                            index_clusters=4, index_nprobe=2),
        ),
        admm=ADMMConfig(n_outer=n_outer, n_inner=2, step_max_rel=4.0),
        priority=priority,
        **spec_over,
    )


class Gate:
    """A projections source that parks the job until released (and reports
    that the job reached its worker)."""

    def __init__(self, data: np.ndarray) -> None:
        self.data = data
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self) -> np.ndarray:
        self.entered.set()
        assert self.release.wait(WAIT), "gate never released"
        return self.data


class TestSchedulingPolicy:
    def test_three_concurrent_jobs(self, problem):
        """>= 3 jobs genuinely in flight at once: every job blocks on a
        shared barrier that only opens when all three are running."""
        _geometry, data = problem
        barrier = threading.Barrier(3, timeout=WAIT)

        def source() -> np.ndarray:
            barrier.wait()
            return data

        with ReconstructionScheduler(ServiceConfig(n_workers=3)) as sched:
            handles = [
                sched.submit(spec(problem, f"concurrent-{i}", projections=source))
                for i in range(3)
            ]
            for h in handles:
                assert h.wait(WAIT)
        assert all(h.state is JobState.DONE for h in handles)
        assert all(h.result is not None and h.result.u.shape == (12, 12, 12)
                   for h in handles)
        assert sched.stats.peak_running == 3
        assert sched.stats.completed == 3

    def test_priority_order_with_fifo_ties(self, problem):
        """One worker, gated first job: the backlog must run highest
        priority first and break ties in submission order."""
        _geometry, data = problem
        gate = Gate(data)
        order: list[str] = []
        lock = threading.Lock()

        def tracking_source(name: str):
            def source() -> np.ndarray:
                with lock:
                    order.append(name)
                return data
            return source

        with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
            first = sched.submit(spec(problem, "gate", projections=gate))
            assert gate.entered.wait(WAIT)
            handles = [
                sched.submit(spec(problem, name, priority=prio,
                                  projections=tracking_source(name)))
                for name, prio in [
                    ("low-a", 0), ("high", 5), ("mid", 3), ("low-b", 0),
                ]
            ]
            gate.release.set()
            for h in [first, *handles]:
                assert h.wait(WAIT)
        assert order == ["high", "mid", "low-a", "low-b"]
        assert [h.state for h in handles] == [JobState.DONE] * 4

    def test_admission_control_rejects_beyond_depth(self, problem):
        _geometry, data = problem
        gate = Gate(data)
        with ReconstructionScheduler(
            ServiceConfig(n_workers=1, max_queue_depth=2)
        ) as sched:
            running = sched.submit(spec(problem, "gate", projections=gate))
            assert gate.entered.wait(WAIT)
            q1 = sched.submit(spec(problem, "q1"))
            q2 = sched.submit(spec(problem, "q2"))
            with pytest.raises(AdmissionError, match="depth limit 2"):
                sched.submit(spec(problem, "overflow"))
            assert sched.stats.rejected == 1
            # rejection is not sticky: queue drains, admission reopens
            gate.release.set()
            assert q1.wait(WAIT) and q2.wait(WAIT)
            late = sched.submit(spec(problem, "late"))
            assert late.wait(WAIT)
        assert running.state is JobState.DONE and late.state is JobState.DONE
        assert sched.stats.submitted == 4  # the rejected spec was never a job

    def test_depth_zero_requires_idle_worker(self, problem):
        _geometry, data = problem
        gate = Gate(data)
        with ReconstructionScheduler(
            ServiceConfig(n_workers=1, max_queue_depth=0)
        ) as sched:
            running = sched.submit(spec(problem, "gate", projections=gate))
            assert gate.entered.wait(WAIT)
            with pytest.raises(AdmissionError):
                sched.submit(spec(problem, "nope"))
            gate.release.set()
            assert running.wait(WAIT)

    def test_submit_after_shutdown_raises(self, problem):
        sched = ReconstructionScheduler(ServiceConfig(n_workers=1))
        sched.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            sched.submit(spec(problem, "late"))


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, problem):
        _geometry, data = problem
        gate = Gate(data)
        ran = threading.Event()

        def must_not_run() -> np.ndarray:
            ran.set()
            return data

        with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
            first = sched.submit(spec(problem, "gate", projections=gate))
            assert gate.entered.wait(WAIT)
            queued = sched.submit(spec(problem, "victim", projections=must_not_run))
            assert queued.state is JobState.QUEUED
            assert queued.cancel()
            assert queued.state is JobState.CANCELLED  # immediate, pre-run
            assert queued.wait(0.0)
            gate.release.set()
            assert first.wait(WAIT)
        assert not ran.is_set()
        assert queued.result is None
        assert sched.stats.cancelled == 1
        assert not queued.cancel(), "cancelling a terminal job is a no-op"

    def test_cancel_running_job_unwinds_at_next_iteration(self, problem):
        with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
            handle = sched.submit(spec(problem, "long", n_outer=400))
            # wait for real progress, then cancel mid-run
            deadline = threading.Event()
            for _ in range(int(WAIT * 100)):
                if handle.iterations >= 1:
                    break
                deadline.wait(0.01)
            assert handle.iterations >= 1, "job never reported an iteration"
            assert handle.cancel()
            assert handle.wait(WAIT)
        assert handle.state is JobState.CANCELLED
        assert handle.result is None
        assert handle.iterations < 400, "cancellation should cut the run short"
        kinds = [ev.kind for ev in handle.events]
        assert "cancel_requested" in kinds and "cancelled" in kinds

    def test_cancelled_queued_jobs_free_admission_slots(self, problem):
        """Dead heap entries (cancelled while queued, not yet popped) must
        not count against max_queue_depth or queue_depth()."""
        _geometry, data = problem
        gate = Gate(data)
        with ReconstructionScheduler(
            ServiceConfig(n_workers=1, max_queue_depth=2)
        ) as sched:
            running = sched.submit(spec(problem, "gate", projections=gate))
            assert gate.entered.wait(WAIT)
            q1 = sched.submit(spec(problem, "q1"))
            q2 = sched.submit(spec(problem, "q2"))
            assert sched.queue_depth() == 2
            q1.cancel()
            q2.cancel()
            assert sched.queue_depth() == 0
            replacement = sched.submit(spec(problem, "replacement"))
            gate.release.set()
            assert running.wait(WAIT) and replacement.wait(WAIT)
        assert replacement.state is JobState.DONE
        assert sched.stats.cancelled == 2

    def test_shutdown_cancel_pending(self, problem):
        _geometry, data = problem
        gate = Gate(data)
        sched = ReconstructionScheduler(ServiceConfig(n_workers=1))
        first = sched.submit(spec(problem, "gate", projections=gate))
        assert gate.entered.wait(WAIT)
        pending = [sched.submit(spec(problem, f"pending-{i}")) for i in range(3)]
        gate.release.set()
        sched.shutdown(wait=True, cancel_pending=True)
        assert first.state is JobState.DONE
        assert all(h.state is JobState.CANCELLED for h in pending)
        assert sched.stats.cancelled == 3


class TestJobLifecycle:
    def test_failure_is_contained(self, problem):
        def explode() -> np.ndarray:
            raise OSError("scan file vanished")

        with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
            bad = sched.submit(spec(problem, "bad", projections=explode))
            good = sched.submit(spec(problem, "good"))
            assert bad.wait(WAIT) and good.wait(WAIT)
        assert bad.state is JobState.FAILED
        assert isinstance(bad.error, OSError)
        assert good.state is JobState.DONE
        assert sched.stats.failed == 1 and sched.stats.completed == 1

    def test_events_and_iterations_captured(self, problem):
        with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
            handle = sched.submit(spec(problem, "traced", n_outer=3))
            assert handle.wait(WAIT)
        kinds = [ev.kind for ev in handle.events]
        assert kinds[0] == "submitted" and kinds[-1] == "done"
        assert "running" in kinds
        assert kinds.count("iteration") == 3
        assert handle.iterations == 3
        times = [ev.t for ev in handle.events]
        assert times == sorted(times)

    def test_failed_job_ends_with_its_error_as_the_last_event(self, problem):
        """What an operator reads about a job that gave up: the terminal
        event carries the error, after one failed attempt and one retry."""

        def doomed() -> np.ndarray:
            raise OSError("scan volume unavailable")

        with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
            handle = sched.submit(
                spec(problem, "doomed", projections=doomed, max_retries=1)
            )
            assert handle.wait(WAIT)
        assert handle.state is JobState.FAILED
        last = handle.events[-1]
        assert last.kind == JobState.FAILED.value
        assert last.detail == "OSError: scan volume unavailable"
        kinds = [ev.kind for ev in handle.events]
        assert kinds.count("attempt_failed") == 1 and kinds.count("retry") == 1

    def test_scheduler_gauges_land_in_the_registry(self, problem):
        """The worker loop publishes the scheduler's gauges into the
        process registry, which ``to_prometheus`` renders and a JSONL dump
        carries."""
        import repro.obs as obs
        from repro.obs import ObsConfig

        obs.configure(ObsConfig(enabled=True))
        try:
            with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
                handle = sched.submit(spec(problem, "published"))
                assert handle.wait(WAIT)
            text = obs.to_prometheus(obs.snapshot())
        finally:
            obs.reset()
        lines = set(text.splitlines())
        assert "scheduler_queue_depth 0" in lines
        assert "scheduler_running 0" in lines
        assert "scheduler_submitted 1" in lines
        assert "scheduler_completed 1" in lines

    def test_bad_projections_type_fails(self, problem):
        with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
            handle = sched.submit(
                spec(problem, "badtype", projections=lambda: "not an array")
            )
            assert handle.wait(WAIT)
        assert handle.state is JobState.FAILED
        assert isinstance(handle.error, TypeError)


class TestSharedMemo:
    def test_cross_job_warm_start_through_service(self, problem):
        """Job N+1 starts from job N's database: its hit-rate delta beats
        the same scan reconstructed cold."""
        geometry, data = problem
        with ReconstructionScheduler(
            ServiceConfig(n_workers=1, share_memo=True)
        ) as sched:
            first = sched.submit(spec(problem, "scan-1"))
            second = sched.submit(spec(problem, "scan-2"))
            assert first.wait(WAIT) and second.wait(WAIT)
        assert first.memo_delta is not None and second.memo_delta is not None
        assert second.db_entries_start > 0, "job 2 must start from job 1's tier"
        assert first.db_entries_start == 0
        assert second.memo_delta.hit_rate > first.memo_delta.hit_rate
        assert any(ev.kind == "warm_start" for ev in second.events)
        assert sched.memo_service.generation == 2

    def test_share_memo_off_isolates_jobs(self, problem):
        with ReconstructionScheduler(
            ServiceConfig(n_workers=1, share_memo=False)
        ) as sched:
            first = sched.submit(spec(problem, "iso-1"))
            second = sched.submit(spec(problem, "iso-2"))
            assert first.wait(WAIT) and second.wait(WAIT)
        assert second.db_entries_start == 0
        assert sched.memo_service.state() is None

    def test_per_job_snapshot_takes_precedence_over_shared_seed(
        self, problem, tmp_path
    ):
        """A job with an explicit memo_snapshot must get exactly that
        snapshot — the shared tier must not be seeded on top of it."""
        geometry, data = problem
        with ReconstructionScheduler(
            ServiceConfig(n_workers=1, share_memo=True)
        ) as sched:
            first = sched.submit(spec(problem, "builder"))
            assert first.wait(WAIT)
            sched.memo_service.save(tmp_path / "snap")
            explicit = spec(problem, "explicit")
            explicit.config.memo_snapshot = str(tmp_path / "snap")
            second = sched.submit(explicit)
            assert second.wait(WAIT)
        assert second.state is JobState.DONE
        # warm via its own snapshot (entries present), not via the service
        assert second.db_entries_start > 0
        assert not any(ev.kind == "warm_start" for ev in second.events)

    def test_memo_service_snapshot_round_trip(self, problem, tmp_path):
        service = SharedMemoService()
        with pytest.raises(ValueError, match="cold"):
            service.save(tmp_path / "m")
        with ReconstructionScheduler(
            ServiceConfig(n_workers=1), memo_service=service
        ) as sched:
            handle = sched.submit(spec(problem, "persist"))
            assert handle.wait(WAIT)
        service.save(tmp_path / "m")
        reloaded = SharedMemoService()
        reloaded.load(tmp_path / "m")
        tree = reloaded.state()
        assert tree is not None and memo_state_partitions(tree)
        # a scheduler booted from the restored service warm-starts its jobs
        with ReconstructionScheduler(
            ServiceConfig(n_workers=1), memo_service=reloaded
        ) as sched2:
            warm = sched2.submit(spec(problem, "after-restart"))
            assert warm.wait(WAIT)
        assert warm.db_entries_start > 0
        assert warm.memo_delta.hits > 0


class TestOperatorStatePerGeometry:
    def test_a_job_on_a_known_geometry_rebuilds_nothing(self, problem, monkeypatch):
        """Each job builds its own stack, but a stack of a geometry the
        process knows reads its operator state: the second job runs no DC
        basis kernel (nor the Lipschitz passes) and builds no block."""
        geometry, _data = problem
        computed = []
        once = operators_module._OperatorState.once

        def counting_once(state, key, compute):
            return once(state, key, lambda: computed.append(key[0]) or compute())

        monkeypatch.setattr(operators_module._OperatorState, "once", counting_once)
        with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
            first = sched.submit(spec(problem, "first"))
            assert first.wait(WAIT)
            assert "dc_basis" in computed and "normal_lipschitz" in computed
            plan2d = LaminoOperators(geometry).plan2d  # the jobs' plan: a registry hit
            nbytes, n_computed = plan2d.nbytes, len(computed)
            second = sched.submit(spec(problem, "second"))
            assert second.wait(WAIT)
        assert first.state is second.state is JobState.DONE
        assert len(computed) == n_computed  # no basis, no estimate
        assert plan2d.nbytes == nbytes  # no slice operator


class TestValidation:
    def test_service_config_knobs(self):
        with pytest.raises(ValueError, match="n_workers"):
            ServiceConfig(n_workers=0)
        with pytest.raises(ValueError, match="max_queue_depth"):
            ServiceConfig(max_queue_depth=-1)
        ServiceConfig(max_queue_depth=0)  # "never queue" is a valid policy

    def test_job_spec_validation(self, problem):
        geometry, data = problem
        ok = dict(geometry=geometry, projections=data)
        with pytest.raises(ValueError, match="name"):
            JobSpec(name="", **ok)
        with pytest.raises(ValueError, match="geometry"):
            JobSpec(name="j", geometry="geo", projections=data)
        with pytest.raises(ValueError, match="projections"):
            JobSpec(name="j", geometry=geometry, projections=[1, 2])
        with pytest.raises(ValueError, match="config"):
            JobSpec(name="j", config={"chunk_size": 4}, **ok)
        with pytest.raises(ValueError, match="admm"):
            JobSpec(name="j", admm=object(), **ok)
        with pytest.raises(ValueError, match="priority"):
            JobSpec(name="j", priority=1.5, **ok)
        with pytest.raises(ValueError, match="priority"):
            JobSpec(name="j", priority=True, **ok)
        # a wrong-shaped array is refused at submit, not on every attempt
        short = data[: len(data) // 2]
        with pytest.raises(ValueError, match=re.escape(f"projections shape {short.shape} != ")):
            JobSpec(name="j", geometry=geometry, projections=short, max_retries=2)
        n1, n0, n2 = geometry.vol_shape
        with pytest.raises(ValueError, match=re.escape(f"u0 shape {(n1, n0, n2 + 1)} != ")):
            JobSpec(name="j", u0=np.zeros((n1, n0, n2 + 1), np.complex64), max_retries=2, **ok)
        JobSpec(name="j", projections=lambda: short, geometry=geometry)  # checked when run

    def test_submit_rejects_non_spec(self, problem):
        with ReconstructionScheduler(ServiceConfig(n_workers=1)) as sched:
            with pytest.raises(ValueError, match="JobSpec"):
                sched.submit("not a spec")
