"""The four whole-job workloads of the ledger.

Each is a closed loop with one client: the next job starts when the
previous one has finished.  A *job* is everything a user pays for one
reconstruction — solver construction, the run, ``close`` — and on
``service_warm`` ``submit`` until finished.  FFT threads stay at the
library default (``workers=-1`` = every core) and nothing else runs in
parallel.

The solver workloads run at vol (64, 32, 64), 32 angles — smaller than the
(96, 32, 96), 48 angles ISSUE 12 was sized with, because the driver's contract
gives 92 runs 3420 s in total and this sandbox slows down by 20-40 % for
minutes at a time; ``service_warm`` keeps the issue's geometry.  README.md
has the numbers.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.config import MemoConfig, MLRConfig, ObsConfig
from repro.core.memo_engine import memo_state_partitions
from repro.core.mlr_solver import MLRSolver
from repro.lamino.operators import LaminoOperators
from repro.net.server import MemoServerDaemon
from repro.obs import runtime as obs_runtime
from repro.service.jobs import JobSpec, JobState
from repro.service.scheduler import ReconstructionScheduler, ServiceConfig
from repro.solvers.admm import ADMMSolver
from repro.solvers.executor import DirectExecutor

from .inputs import Inputs, Problem

__all__ = ["JobResult", "Workload", "WORKLOADS", "RUN_SECONDS"]

#: ``--seconds`` at which a run times ``Workload.timed_jobs`` jobs; the job
#: count scales linearly with ``--seconds``, so it is the same on every run
#: of one setting and count metrics repeat exactly.
RUN_SECONDS = 8

SOLVER_PROBLEM = Problem((64, 32, 64), 32, (32, 64), chunk_size=8)
SERVICE_PROBLEM = Problem((64, 16, 64), 32, (16, 64), chunk_size=4)
TINY_PROBLEM = Problem((16, 8, 16), 8, (8, 16), chunk_size=4)


@dataclass
class JobResult:
    """What one whole job returned, plus what the benchmark read off the
    finished solver after the clock stopped."""

    wall_s: float
    u: np.ndarray
    d: np.ndarray
    done: bool = True
    case_counts: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    #: perf_counter at the end of every outer iteration (solver callback)
    iter_times: list = field(default_factory=list)
    #: memo database traffic of this job and the tier size it left behind
    db: dict = field(default_factory=dict)
    #: ``NetClientStats`` of the job's client (``mlr_tcp``)
    net: dict = field(default_factory=dict)
    #: ``queue_wait_s`` / ``run_s`` from ``JobHandle.events`` (``service_warm``)
    service: dict = field(default_factory=dict)


def _db_summary(stats, entries: int) -> dict:
    return {
        "queries": stats.queries,
        "hits": stats.hits,
        "inserts": stats.inserts,
        "insert_mb": stats.bytes_inserted / 1e6,
        "entries_end": entries,
        "mb_end": stats.bytes_inserted / 1e6,
    }


class Workload:
    """One workload: how to set a stack up and how to run one job on it."""

    name = ""
    why = ""
    problem = SOLVER_PROBLEM
    #: timed jobs of a ``--seconds RUN_SECONDS`` run
    timed_jobs = 3
    #: traced-run schedule: U = untraced, T = traced, O = untraced with
    #: ``repro.obs`` on; every T and O has an untraced job on either side,
    #: which its overhead is measured against
    trace_plan = "UTUTU"
    #: touched by the pre-fault child: >= 1.25x the recorded ``peak_rss_mb``
    prefault_mb = 1500

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny
        if tiny:
            self.problem = TINY_PROBLEM
            self.trace_plan = "UTOU" if "O" in self.trace_plan else "UTU"
            self.prefault_mb = 64
        self.geom = self.problem.geometry()
        self.admm = self.problem.admm()
        self.ops: LaminoOperators | None = None
        self.inputs: Inputs | None = None
        self.d: np.ndarray | None = None

    # -- set-up ---------------------------------------------------------------------------

    def setup(self) -> float:
        """Geometry -> a solver ready to iterate, from cold plan caches.
        Keeps the operator stack for the jobs; returns the seconds taken."""
        self.ops = None
        gc.collect()  # the previous stack's block-CSR caches go first
        t0 = perf_counter()
        self.ops = LaminoOperators(self.geom)
        solver = self._build_solver()
        seconds = perf_counter() - t0
        if hasattr(solver, "close"):
            solver.close()
        return seconds

    def _build_solver(self):
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        self.inputs = Inputs(self.ops, seed)
        self.d = self.inputs.projections()

    def close(self) -> None:
        """Stop whatever the workload keeps running between jobs."""

    # -- jobs -----------------------------------------------------------------------------

    def n_timed(self, seconds: float) -> int:
        if self.tiny:
            return 1
        return max(1, round(self.timed_jobs * seconds / RUN_SECONDS))

    def reference(self) -> JobResult:
        """The un-memoized solve of the same data: the accuracy envelope of
        the memo workloads and every process's warm-up job."""
        return self._direct_job(self.d)

    def _direct_solver(self) -> ADMMSolver:
        return ADMMSolver(
            self.ops,
            self.admm,
            executor=DirectExecutor(self.ops, chunk_size=self.problem.chunk_size),
        )

    def _direct_job(self, d, tracer=None, tag="") -> JobResult:
        iter_times: list[float] = []
        _begin(tracer, tag)
        t0 = perf_counter()
        result = self._direct_solver().run(
            d, callback=lambda *_: iter_times.append(perf_counter())
        )
        wall = perf_counter() - t0
        _end(tracer)
        return JobResult(wall, result.u, d, iter_times=iter_times)

    def _mlr_job(self, config: MLRConfig, d, tracer=None, tag="", tier=None) -> JobResult:
        """One ``MLRSolver`` job; ``tier`` is the daemon's router when the
        database lives there (read after the clock stops, not over the
        wire, so the job's request count stays its own)."""
        iter_times: list[float] = []
        _begin(tracer, tag)
        t0 = perf_counter()
        solver = MLRSolver(self.geom, config, self.admm, ops=self.ops)
        try:
            result = solver.reconstruct(
                d, callback=lambda *_: iter_times.append(perf_counter())
            )
        finally:
            solver.close()
        wall = perf_counter() - t0
        _end(tracer)
        executor = solver.memo_executor
        if tier is None:
            db = _db_summary(executor.db_stats_total(), executor.db_entries_total())
            net = {}
        else:
            db = _db_summary(tier.stats(), tier.entries())
            net = dict(vars(executor.router.net_stats))
        return JobResult(
            wall, result.u, d, case_counts=result.case_counts, events=result.events,
            iter_times=iter_times, db=db, net=net,
        )

    def job(self, tracer=None, tag="", obs=False) -> JobResult:
        raise NotImplementedError


def _begin(tracer, tag: str) -> None:
    gc.collect()  # outside the clock: a job never pays for its predecessor's garbage
    if tracer is not None:
        tracer.begin_job(tag)


def _end(tracer) -> None:
    if tracer is not None:
        tracer.end_job()


class AdmmDirect(Workload):
    name = "admm_direct"
    why = (
        "Plain ADMMSolver through DirectExecutor: memo, net and service are bypassed, so "
        "it is the honest Fig. 8 baseline and the no-change row of every memo/net/service "
        "optimisation."
    )

    def _build_solver(self):
        return self._direct_solver()

    def job(self, tracer=None, tag="", obs=False) -> JobResult:
        return self._direct_job(self.d, tracer, tag)


class MlrCold(Workload):
    name = "mlr_cold"
    why = (
        "MLRSolver with the default MemoConfig, every job from an empty memo database: the "
        "paper's headline case and the write-heavy (insert-path) use of the memo tier."
    )
    trace_plan = "UTOUTOU"

    def _config(self, obs: bool = False) -> MLRConfig:
        return MLRConfig(
            chunk_size=self.problem.chunk_size, obs=ObsConfig() if obs else None
        )

    def _build_solver(self):
        return MLRSolver(self.geom, self._config(), self.admm, ops=self.ops)

    def job(self, tracer=None, tag="", obs=False) -> JobResult:
        try:
            return self._mlr_job(self._config(obs), self.d, tracer, tag)
        finally:
            if obs:  # MLRSolver switched the process-wide runtime on
                obs_runtime.reset()


class MlrTcp(Workload):
    name = "mlr_tcp"
    why = (
        "The same solve on 2 workers x 2 shards through a loopback MemoServerDaemon: the "
        "only workload where core.distributed, the coalescer and net (wire, client, "
        "server) do work."
    )
    prefault_mb = 1600
    _address = None  # of the daemon the set-up in progress connects to

    def _config(self, address=None) -> MLRConfig:
        memo = (
            MemoConfig(transport="tcp", server_address=address)
            if address is not None
            else MemoConfig()
        )
        return MLRConfig(
            chunk_size=self.problem.chunk_size, n_workers=2, n_shards=2, memo=memo
        )

    def setup(self) -> float:
        # daemon start-up is not the client's set-up; the connect is
        with MemoServerDaemon(n_shards=2) as daemon:
            self._address = daemon.address
            return super().setup()

    def _build_solver(self):
        return MLRSolver(self.geom, self._config(self._address), self.admm, ops=self.ops)

    def inproc_job(self) -> JobResult:
        """The same 2 x 2 solve with the shard router in process: what the
        TCP job must reproduce bit for bit."""
        return self._mlr_job(self._config(), self.d)

    def job(self, tracer=None, tag="", obs=False) -> JobResult:
        # a fresh daemon per job, started and stopped outside the clock
        with MemoServerDaemon(n_shards=2) as daemon:
            return self._mlr_job(
                self._config(daemon.address), self.d, tracer, tag, tier=daemon.router
            )


class ServiceWarm(Workload):
    name = "service_warm"
    why = (
        "One-worker ReconstructionScheduler, a cold job then warm jobs with fresh noise: the "
        "service layer (per-job solver and plan build, seed/absorb) and the read-heavy use "
        "of a memo tier that only grows."
    )
    problem = SERVICE_PROBLEM
    timed_jobs = 6
    trace_plan = "UTUTUTUTU"
    prefault_mb = 2100

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self.config = MLRConfig(chunk_size=self.problem.chunk_size)
        self.scheduler: ReconstructionScheduler | None = None

    def setup(self) -> float:
        """Scheduler construction plus a bare ``MLRSolver`` build, which is
        what the first job pays before it can iterate."""
        self.close()
        self.ops = None
        gc.collect()
        t0 = perf_counter()
        # one scheduler worker on purpose: two jobs x two FFT threads
        # oversubscribe a 2-core box
        self.scheduler = ReconstructionScheduler(ServiceConfig(n_workers=1))
        solver = MLRSolver(self.geom, self.config, self.admm)
        seconds = perf_counter() - t0
        self.ops = solver.ops  # the benchmark's own stack: inputs and accuracy
        solver.close()
        return seconds

    def close(self) -> None:
        if self.scheduler is not None:
            self.scheduler.shutdown(wait=True)
            self.scheduler = None

    def job(self, tracer=None, tag="", obs=False) -> JobResult:
        d = self.inputs.projections()
        spec = JobSpec(tag or "job", self.geom, d, self.config, self.admm)
        _begin(tracer, tag)
        t0 = perf_counter()
        handle = self.scheduler.submit(spec)
        handle.wait(timeout=150.0)
        wall = perf_counter() - t0
        _end(tracer)
        if handle.state is not JobState.DONE:
            return JobResult(wall, np.zeros(self.geom.vol_shape, np.complex64), d, done=False)
        at = {ev.kind: ev.t for ev in handle.events}
        tier = self.scheduler.memo_service.state()
        db = _db_summary(handle.memo_delta, handle.db_entries_end)
        db["mb_end"] = tier_mb(tier)
        return JobResult(
            wall, handle.result.u, d,
            case_counts=handle.result.case_counts, events=handle.result.events,
            iter_times=[ev.t for ev in handle.events if ev.kind == "iteration"],
            db=db,
            service={
                "queue_wait_s": at["running"] - at["submitted"],
                "run_s": at["done"] - at["running"],
            },
        )


def tier_mb(tree: dict) -> float:
    """Serialized-frame megabytes ever inserted into a memo-state tree."""
    return sum(
        int(p["db"]["stats"]["bytes_inserted"]) for p in memo_state_partitions(tree)
    ) / 1e6


WORKLOADS = {w.name: w for w in (AdmmDirect, MlrCold, MlrTcp, ServiceWarm)}
