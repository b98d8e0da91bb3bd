"""Acceptance: loopback ``tcp`` transport is bit-identical to ``inproc``.

- ``MLRSolver`` reconstructions and per-op memo hit/miss decisions match
  exactly between ``transport="inproc"`` and ``transport="tcp"`` at every
  tested workers x shards layout — and with replication wrapped around
  in-process routers instead of a wire,
- a scheduler warm-starts through a daemon-backed shared tier (two
  scheduler instances = two hosts sharing one daemon),
- kill-the-daemon-mid-run fail-open: the job completes on cold compute and
  the client reconnects for the next reconstruction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MemoConfig, MemoShardRouter, MLRConfig, MLRSolver
from repro.core.memo_engine import make_db_factory
from repro.lamino import LaminoGeometry, LaminoOperators, brain_like, simulate_data
from repro.net import (
    MemoServerDaemon,
    RemoteMemoClient,
    ReplicatedMemoClient,
    connect_tier,
    pull_state,
)
from repro.service import JobSpec, ReconstructionScheduler, ServiceConfig
from repro.solvers import ADMMConfig

ADMM = ADMMConfig(n_outer=5, n_inner=2, step_max_rel=4.0)


def memo_cfg(**over) -> MemoConfig:
    base = dict(
        tau=0.92, warmup_iterations=1, index_train_min=4, index_clusters=2,
        index_nprobe=2,
    )
    base.update(over)
    return MemoConfig(**base)


@pytest.fixture(scope="module")
def problem():
    n = 16
    g = LaminoGeometry((n, n, n), n_angles=12, det_shape=(n, n), tilt_deg=61.0)
    ops = LaminoOperators(g)
    truth = brain_like(g.vol_shape, seed=7)
    d = simulate_data(truth, g, noise_level=0.03, seed=1)
    return g, ops, d


def run_solver(g, ops, d, memo: MemoConfig, n_workers=1, n_shards=1):
    """Solve and return (solver, result) — callers read stats before the
    transport is torn down (a closed client reads fail-open zeros)."""
    cfg = MLRConfig(chunk_size=4, memo=memo, n_workers=n_workers, n_shards=n_shards)
    solver = MLRSolver(g, cfg, admm=ADMM, ops=ops)
    return solver, solver.reconstruct(d)


def event_view(result):
    return [
        (e.outer, e.inner, e.op, e.chunk, e.case, e.similarity, e.worker, e.shard)
        for e in result.events
    ]


class TestBitIdentity:
    @pytest.mark.parametrize("n_workers,n_shards", [(1, 1), (2, 2), (3, 2)])
    def test_solver_identical_across_transports(self, problem, n_workers, n_shards):
        g, ops, d = problem
        _ref_solver, ref = run_solver(
            g, ops, d, memo_cfg(), n_workers=n_workers, n_shards=n_shards
        )
        with MemoServerDaemon(n_shards=n_shards, memo=memo_cfg()) as srv:
            solver, res = run_solver(
                g, ops, d,
                memo_cfg(transport="tcp", server_address=srv.address),
                n_workers=n_workers, n_shards=n_shards,
            )
            assert isinstance(solver.memo_executor.router, RemoteMemoClient)
            assert solver.memo_executor.router.net_stats.degraded_queries == 0
        np.testing.assert_array_equal(ref.u, res.u)
        assert event_view(ref) == event_view(res)  # every hit/miss decision
        assert ref.case_counts == res.case_counts
        assert ref.op_counts == res.op_counts

    def test_db_stats_and_entries_match(self, problem):
        g, ops, d = problem
        ref_solver, _ = run_solver(g, ops, d, memo_cfg(), n_workers=2, n_shards=2)
        with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
            solver, _ = run_solver(
                g, ops, d, memo_cfg(transport="tcp", server_address=srv.address),
                n_workers=2, n_shards=2,
            )
            for op in ("Fu1D", "Fu2D", "Fu2D*", "Fu1D*"):
                assert (
                    solver.memo_executor.db_stats(op).as_dict()
                    == ref_solver.memo_executor.db_stats(op).as_dict()
                )
                assert (
                    solver.memo_executor.db_entries(op)
                    == ref_solver.memo_executor.db_entries(op)
                )
            assert (
                solver.memo_executor.router.shard_stats()
                == ref_solver.memo_executor.router.shard_stats()
            )

    def test_replicated_over_inproc_routers_identical(self, problem):
        """The fourth topology: replication wrapped around two in-process
        routers (no wire at all) reproduces the bare router bit for bit,
        and leaves both replicas holding the same tier."""
        g, ops, d = problem
        ref_solver, ref = run_solver(g, ops, d, memo_cfg(), n_workers=2, n_shards=2)
        cfg = MLRConfig(chunk_size=4, memo=memo_cfg(), n_workers=2, n_shards=2)
        solver = MLRSolver(g, cfg, admm=ADMM, ops=ops)
        replicas = [MemoShardRouter(2, make_db_factory(memo_cfg())) for _ in range(2)]
        solver.memo_executor.router = ReplicatedMemoClient(replicas)
        res = solver.reconstruct(d)
        np.testing.assert_array_equal(ref.u, res.u)
        assert event_view(ref) == event_view(res)
        assert ref.case_counts == res.case_counts
        ref_ex, ex = ref_solver.memo_executor, solver.memo_executor
        assert ex.db_stats_total().as_dict() == ref_ex.db_stats_total().as_dict()
        assert ex.db_entries_total() == ref_ex.db_entries_total()
        assert ex.router.shard_stats() == ref_ex.router.shard_stats()
        assert ex.router.net_stats is None
        # inserts reached both; each shard's reads went to its primary only
        assert replicas[0].entries() == replicas[1].entries() == ref_ex.router.entries()
        for shard, (stats, _n) in enumerate(ref_ex.router.shard_stats()):
            primary, other = replicas[shard % 2], replicas[1 - shard % 2]
            assert primary.shard_stats()[shard][0].queries == stats.queries
            assert other.shard_stats()[shard][0].queries == 0

    def test_warm_start_via_remote_snapshot_matches_local(self, problem):
        """memo_snapshot loads push to the daemon; a second run over the
        same daemon behaves exactly like a locally warm-started run."""
        g, ops, d = problem
        base_solver, _ = run_solver(g, ops, d, memo_cfg())
        tree = base_solver.memo_executor.memo_state()

        ref_solver = MLRSolver(
            g,
            MLRConfig(chunk_size=4, memo=memo_cfg(), memo_snapshot=tree, n_shards=2),
            admm=ADMM, ops=ops,
        )
        ref = ref_solver.reconstruct(d)

        with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
            cfg = MLRConfig(
                chunk_size=4,
                memo=memo_cfg(transport="tcp", server_address=srv.address),
                memo_snapshot=tree,
                n_shards=2,
            )
            solver = MLRSolver(g, cfg, admm=ADMM, ops=ops)
            assert srv.router.entries() > 0  # snapshot pushed at construction
            res = solver.reconstruct(d)
            solver.close()
        np.testing.assert_array_equal(ref.u, res.u)
        assert event_view(ref) == event_view(res)


class TestSchedulerRemoteTier:
    def test_two_schedulers_share_one_daemon(self, problem):
        """Host A's scheduler absorbs into the daemon; host B's scheduler —
        a different process in real life — warm-starts from it."""
        g, _ops, d = problem
        job_cfg = lambda: MLRConfig(chunk_size=4, memo=memo_cfg())  # noqa: E731

        with MemoServerDaemon(n_shards=2, memo=memo_cfg()) as srv:
            svc = ServiceConfig(
                n_workers=1, memo_transport="tcp", memo_server=srv.address
            )
            with ReconstructionScheduler(ServiceConfig(n_workers=1)) as cold_sched:
                cold = cold_sched.submit(
                    JobSpec("cold", g, d, config=job_cfg(), admm=ADMM)
                )
                cold.wait()

            sched_a = ReconstructionScheduler(svc)
            job_a = sched_a.submit(JobSpec("scan-a", g, d, config=job_cfg(), admm=ADMM))
            job_a.wait()
            sched_a.shutdown()
            assert srv.router.entries() > 0  # absorbed into the daemon

            sched_b = ReconstructionScheduler(
                ServiceConfig(n_workers=1, memo_transport="tcp",
                              memo_server=srv.address)
            )
            job_b = sched_b.submit(JobSpec("scan-b", g, d, config=job_cfg(), admm=ADMM))
            job_b.wait()
            sched_b.shutdown()

        assert any(ev.kind == "warm_start" for ev in job_b.events)
        assert not any(ev.kind == "warm_start" for ev in job_a.events)
        cold_rate = cold.memo_delta.hit_rate
        warm_rate = job_b.memo_delta.hit_rate
        assert warm_rate > cold_rate, (warm_rate, cold_rate)

    def test_remote_store_pull_seeds_solver_config(self, problem):
        """pull_state of a connected tier feeds MLRConfig(memo_snapshot=...)
        — the cross-host warm start without any scheduler at all."""
        g, ops, d = problem
        with MemoServerDaemon(n_shards=1, memo=memo_cfg()) as srv:
            solver, _ = run_solver(
                g, ops, d, memo_cfg(transport="tcp", server_address=srv.address)
            )
            with connect_tier(srv.address) as tier:
                tree = pull_state(tier)
            assert tree is not None
        warm = MLRSolver(
            g, MLRConfig(chunk_size=4, memo=memo_cfg(), memo_snapshot=tree),
            admm=ADMM, ops=ops,
        )
        assert warm.memo_executor.db_entries_total() > 0
        res = warm.reconstruct(d)
        assert res.case_counts.get("db_hit", 0) + res.case_counts.get(
            "cache_hit", 0
        ) > 0

    def test_incompatible_seed_falls_back_to_cold_not_failed(self, problem):
        """A shared tier the job's memo config cannot accept (here: a tau
        mismatch) means a cold start with a seed_failed event — zero
        reconstruction work must never be thrown away over a tier seed."""
        from repro.service import JobState

        g, _ops, d = problem
        with MemoServerDaemon(n_shards=1, memo=memo_cfg()) as srv:
            sched = ReconstructionScheduler(
                ServiceConfig(n_workers=1, memo_transport="tcp",
                              memo_server=srv.address)
            )
            warm = sched.submit(
                JobSpec("populate", g, d,
                        config=MLRConfig(chunk_size=4, memo=memo_cfg()),
                        admm=ADMM)
            )
            warm.wait()
            mismatched = sched.submit(
                JobSpec("tau-mismatch", g, d,
                        config=MLRConfig(chunk_size=4, memo=memo_cfg(tau=0.5)),
                        admm=ADMM)
            )
            mismatched.wait()
            sched.shutdown()
        assert warm.state is JobState.DONE
        assert mismatched.state is JobState.DONE
        assert mismatched.result is not None
        assert any(ev.kind == "seed_failed" for ev in mismatched.events)
        assert not any(ev.kind == "warm_start" for ev in mismatched.events)

    def test_rejected_absorb_does_not_fail_the_job(self, problem):
        """A daemon-side tier rejection after a successful reconstruction
        stays a tier event (absorb_failed), never a FAILED job."""
        from repro.service import JobState, SharedMemoService

        class _RejectingTier(MemoShardRouter):
            def push_state(self, _tree):
                raise ValueError("pushed keys come from a different encoder")

        g, _ops, d = problem
        sched = ReconstructionScheduler(
            ServiceConfig(n_workers=1),
            memo_service=SharedMemoService(
                _RejectingTier(1, make_db_factory(memo_cfg()))
            ),
        )
        job = sched.submit(
            JobSpec("rejected-absorb", g, d,
                    config=MLRConfig(chunk_size=4, memo=memo_cfg()), admm=ADMM)
        )
        job.wait()
        sched.shutdown()
        assert job.state is JobState.DONE
        assert job.result is not None
        assert any(ev.kind == "absorb_failed" for ev in job.events)

    def test_unreachable_daemon_jobs_still_complete(self, problem):
        g, _ops, d = problem
        with MemoServerDaemon(n_shards=1, memo=memo_cfg()) as srv:
            addr = srv.address
        sched = ReconstructionScheduler(
            ServiceConfig(n_workers=1, memo_transport="tcp", memo_server=addr)
        )
        job = sched.submit(
            JobSpec("no-tier", g, d,
                    config=MLRConfig(chunk_size=4, memo=memo_cfg()), admm=ADMM)
        )
        job.wait()
        sched.shutdown()
        assert job.result is not None
        assert np.isfinite(job.result.u).all()


class TestFailOpen:
    def test_kill_daemon_mid_run_completes_cold_then_reconnects(self, problem):
        """The acceptance scenario: the daemon dies while a reconstruction
        is in flight.  The job finishes (degraded to cold compute, same
        shape of result), and the same client reconnects for the next
        reconstruction once a daemon is back on that address."""
        g, ops, d = problem
        srv = MemoServerDaemon(n_shards=2, memo=memo_cfg())
        host, port = srv.address
        cfg = MLRConfig(
            chunk_size=4,
            memo=memo_cfg(transport="tcp", server_address=(host, port)),
            n_workers=2, n_shards=2,
        )
        solver = MLRSolver(g, cfg, admm=ADMM, ops=ops)
        client = solver.memo_executor.router

        killed_at = 2

        def kill_mid_run(it, _u, _info):
            if it == killed_at - 1:
                srv.close()  # sweeps of iteration `killed_at` hit a dead server

        result = solver.reconstruct(d, callback=kill_mid_run)

        # the run completed on cold compute — no exception, finite output
        assert np.isfinite(result.u).all()
        ns = client.net_stats
        assert ns.degraded_queries > 0 or ns.degraded_insert_batches > 0
        # decisions up to the kill are untouched; after it, no db hits
        post = [e for e in result.events if e.outer > killed_at]
        assert post and all(e.case != "db_hit" for e in post)

        # a daemon returns on the same address: the next reconstruction's
        # sweeps reconnect transparently and memo traffic resumes
        with MemoServerDaemon(host=host, port=port, n_shards=2, memo=memo_cfg()):
            before = client.net_stats.connects
            client.reset_backoff()  # don't race the exponential window
            res2 = solver.reconstruct(d)
            assert client.net_stats.connects == before + 1
            assert client.net_stats.degraded_queries == ns.degraded_queries
            assert solver.memo_executor.db_entries_total() > 0
            assert np.isfinite(res2.u).all()
        solver.close()
