"""Multi-job reconstruction scheduler with a shared cross-job memo tier.

:class:`ReconstructionScheduler` is the operational shell around
:class:`~repro.core.mlr_solver.MLRSolver` that beamline-style pipelines
(cf. tomocupy's named-job batch operation) need: submit many named
reconstructions, run them on a bounded worker pool, observe/cancel each
through its :class:`~repro.service.jobs.JobHandle`.

Scheduling policy
-----------------
- **Priority + FIFO fairness**: the ready queue is ordered by
  ``(-priority, submission sequence)`` — higher priority first, ties
  strictly first-come-first-served, so a stream of equal-priority jobs can
  never be starved by later arrivals.
- **Admission control**: beyond ``max_queue_depth`` *waiting* jobs the
  scheduler rejects new submissions with :class:`AdmissionError` (running
  jobs don't count — the knob bounds queue memory, not concurrency).
- **Cooperative cancellation**: queued jobs die in place; running jobs are
  unwound at the next outer ADMM iteration via the solver callback.

Cross-job memoization
---------------------
The scheduler owns a :class:`SharedMemoService` around one
:class:`~repro.core.memo_shard.MemoTier` — a
:class:`~repro.core.memo_shard.MemoShardRouter` in this process, or the
client of a memo server daemon: when a job completes, its executor's
database tier is pushed into it (as a state tree — the same format the
on-disk snapshots use, merged by the tier's own ``push_state``); when the
next job starts, its executor is seeded from the tier's state.  Job N+1
therefore begins with job N's accumulated (key, value) pairs — the
cross-run recurrence the paper's within-run memoization leaves on the
table — and each handle's ``memo_delta`` isolates the job's own hit/query
counters so warm-start gains are directly measurable.  The service
persists/restores through :func:`repro.service.snapshot.write_snapshot`,
surviving process restarts.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field

from ..core.memo_db import MemoDatabase
from ..core.memo_shard import MemoShardRouter, MemoTier, memo_state_partitions
from ..core.mlr_solver import MLRSolver
from ..net.client import RemoteMemoClient
from ..net.snapshot_store import pull_state
from ..net.wire import parse_address
from ..obs import runtime as obs
from .jobs import JobCancelled, JobHandle, JobSpec, JobState
from .snapshot import read_snapshot, write_snapshot

__all__ = [
    "AdmissionError",
    "ServiceConfig",
    "SchedulerStats",
    "SharedMemoService",
    "ReconstructionScheduler",
]


class AdmissionError(RuntimeError):
    """Submission rejected: the waiting queue is at its depth limit."""


@dataclass
class ServiceConfig:
    """Operational knobs of the reconstruction service.

    n_workers:
        Concurrent reconstruction jobs (service worker threads; distinct
        from ``MLRConfig.n_workers``, the *simulated GPU* workers inside
        one job).
    max_queue_depth:
        Admission limit on *waiting* jobs (``None`` = unbounded, ``0`` =
        never queue: a submission is admitted only if a worker can take it
        immediately).
    share_memo:
        Seed every job's executor from the scheduler's shared memo service
        and absorb its database tier on success.  A job carrying an
        explicit ``MLRConfig(memo_snapshot=...)`` is *not* seeded — its
        requested snapshot takes precedence — but its results are still
        absorbed into the shared tier afterwards.
    memo_transport / memo_server:
        Where the shared memo tier lives.  ``"inproc"`` (default) holds it
        in this scheduler's memory; ``"tcp"`` backs it with a
        :class:`~repro.net.server.MemoServerDaemon` at ``memo_server``
        (``"host:port"`` or ``(host, port)``) through one
        :class:`~repro.net.client.RemoteMemoClient`, so schedulers on
        *different hosts* seed from and absorb into one tier.  The remote
        tier is fail-open: a daemon that stays unreachable past the pull's
        retry policy means cold seeds and dropped absorbs, never failed
        jobs.
    """

    n_workers: int = 2
    max_queue_depth: int | None = None
    share_memo: bool = True
    memo_transport: str = "inproc"
    memo_server: str | tuple | list | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0 or None, got {self.max_queue_depth}"
            )
        if self.memo_transport not in ("inproc", "tcp"):
            raise ValueError(
                f"memo_transport must be 'inproc' or 'tcp', got "
                f"{self.memo_transport!r}"
            )
        if self.memo_transport == "tcp":
            if self.memo_server is None:
                raise ValueError("memo_transport='tcp' requires a memo_server address")
            parse_address(self.memo_server)  # fail fast, naming the input


@dataclass
class SchedulerStats:
    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    peak_queue_depth: int = 0
    peak_running: int = 0


@dataclass
class SharedMemoService:
    """The scheduler-owned, persistent cross-job memoization tier.

    Holds a :class:`~repro.core.memo_shard.MemoTier` and reads and writes
    it as whole state trees: :meth:`absorb` pushes a finished job's tier
    into it, :meth:`seed` installs its state into the next job's executor.
    The merge is the tier's own (``push_state`` ->
    :meth:`MemoShard.install <repro.core.memo_shard.MemoShard.install>`),
    at partition granularity: partitions only the tier holds are kept, and
    for a partition both hold the newest completion wins — so a job seeded
    from the tier carries every prior partition forward and sequential
    jobs chain cleanly, while for jobs completing *concurrently*
    per-partition entries are never silently dropped wholesale, but
    updates to the *same* chunk location are last-writer-wins.  Per-entry
    heat is unioned (max last-hit, summed hits).  Thread-safe;
    snapshot-compatible with :mod:`repro.service.snapshot` for durability
    across processes.

    By default the tier is a router in this process.  Given the client of
    a memo server daemon (a :class:`~repro.net.client.RemoteMemoClient`,
    what ``ServiceConfig(memo_transport="tcp")`` builds), the same calls let
    schedulers on different hosts warm-start from one shared tier; that
    tier is fail-open: an unreachable daemon seeds cold and drops absorbs
    rather than failing jobs.
    """

    # no job queries this tier, jobs only push: the partitions it holds are
    # the pushed ones, and its tau is the first pushed partition's
    tier: MemoTier = field(default_factory=lambda: MemoShardRouter(1, MemoDatabase))
    #: tier updates taken so far (absorbed jobs, loaded snapshots)
    generation: int = 0  # guarded-by: self._lock
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def state(self) -> dict | None:
        """The tier's merged state tree; ``None`` while it is cold (or, for
        a remote tier, unreachable: see
        :func:`~repro.net.snapshot_store.pull_state`)."""
        return pull_state(self.tier)

    def seed(self, executor) -> bool:
        """Install the current tier into ``executor``; False when cold."""
        tree = self.state()
        if tree is None:
            return False
        # the job counts its hits from zero: what it pushes back is then its
        # own traffic, and the install merge's summed hit counts are exact
        # (h + dh for a chained job, h + da + db for concurrent ones)
        # instead of counting the inherited hits once per absorb
        for part in memo_state_partitions(tree):
            MemoDatabase.zero_hit_counts(part["db"])
        executor.load_memo_state(tree)
        return True

    def _push(self, tree: dict) -> None:
        if self.tier.push_state(tree):
            with self._lock:
                self.generation += 1

    def absorb(self, executor) -> None:
        """Merge ``executor``'s database tier into the shared tier."""
        self._push(executor.memo_state())

    def save(self, path) -> dict:
        """Persist the tier as a versioned on-disk snapshot."""
        tree = self.state()
        if tree is None:
            raise ValueError("shared memo service is cold — nothing to save")
        return write_snapshot(path, tree, kind="memo-state")

    def load(self, path) -> None:
        """Merge a snapshot directory into the tier."""
        self._push(read_snapshot(path, expect_kind="memo-state"))

    def close(self) -> None:
        self.tier.close()


class ReconstructionScheduler:
    """Bounded-worker-pool scheduler over :class:`MLRSolver` jobs."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        memo_service: SharedMemoService | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._owns_memo_service = memo_service is None
        if memo_service is None:
            if self.config.memo_transport == "tcp":
                memo_service = SharedMemoService(
                    RemoteMemoClient(
                        self.config.memo_server,
                        fail_open=True,
                        client_name="snapshot-store",
                    )
                )
            else:
                memo_service = SharedMemoService()
        self.memo_service = memo_service
        self.stats = SchedulerStats()  # guarded-by: self._cond
        self._cond = threading.Condition()
        self._heap: list[tuple[int, int, JobHandle]] = []  # guarded-by: self._cond
        self._seq = itertools.count()
        self._shutdown = False  # guarded-by: self._cond
        self._running = 0  # guarded-by: self._cond
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"recon-worker-{i}",
                             daemon=True)
            for i in range(self.config.n_workers)
        ]
        for t in self._workers:
            t.start()

    # -- submission ----------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobHandle:
        """Enqueue one job; returns its handle.

        Raises :class:`AdmissionError` when the waiting queue is at
        ``max_queue_depth`` (the spec is not retained), and
        ``RuntimeError`` after :meth:`shutdown`.
        """
        if not isinstance(spec, JobSpec):
            raise ValueError(f"submit expects a JobSpec, got {type(spec).__name__}")
        with self._cond:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
            if not self._admits_locked():
                self.stats.rejected += 1
                raise AdmissionError(
                    f"queue depth limit {self.config.max_queue_depth} reached "
                    f"({self._live_waiting_locked()} waiting, "
                    f"{self._running} running)"
                )
            handle = JobHandle(spec, job_id=self.stats.submitted)
            self.stats.submitted += 1
            heapq.heappush(self._heap, (-spec.priority, next(self._seq), handle))
            depth_now = self._live_waiting_locked()
            self.stats.peak_queue_depth = max(self.stats.peak_queue_depth, depth_now)
            self._cond.notify()
        obs.gauge("scheduler_queue_depth").set(depth_now)
        return handle

    def _admits_locked(self) -> bool:
        """The admission test: would one more job wait beyond
        ``max_queue_depth``?  A submission an idle worker would grab
        immediately is admitted even at depth 0 — the knob bounds *waiting*
        jobs."""
        depth = self.config.max_queue_depth
        if depth is None:
            return True
        queued = self._live_waiting_locked() + 1
        idle = max(self.config.n_workers - self._running, 0)
        return queued - min(idle, queued) <= depth

    def _live_waiting_locked(self) -> int:
        """Waiting jobs that will actually run — entries whose handle was
        cancelled while queued are dead weight awaiting a worker's pop and
        must not count against the admission limit."""
        return sum(1 for _, _, h in self._heap if not h.state.terminal)

    def queue_depth(self) -> int:
        with self._cond:
            return self._live_waiting_locked()

    # -- lifecycle -----------------------------------------------------------------------

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting work and wind the pool down.

        By default the workers drain every already-queued job first;
        ``cancel_pending=True`` cancels the waiting queue instead (running
        jobs still finish — use their handles to cancel those too).
        """
        with self._cond:
            self._shutdown = True
            if cancel_pending:
                # each dropped job is counted exactly once: here, since the
                # heap is cleared under the lock, a worker can never also
                # pop (and re-count) it
                for _, _, handle in self._heap:
                    handle.cancel()
                    if handle.state is JobState.CANCELLED:
                        self.stats.cancelled += 1
                self._heap.clear()
            self._cond.notify_all()
        if wait:
            for t in self._workers:
                t.join()
        # release the remote tier connection only if this scheduler created
        # it (an injected service may be shared with other schedulers); with
        # wait=False workers may still be absorbing, so it must stay open —
        # the store's client survives a close-under-it anyway (fail-open)
        if wait and self._owns_memo_service:
            self.memo_service.close()

    def __enter__(self) -> "ReconstructionScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=True)

    # -- the worker loop -----------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._heap and not self._shutdown:
                    self._cond.wait()
                if not self._heap:
                    return  # shutdown and drained
                _, _, handle = heapq.heappop(self._heap)
                if not handle._claim():
                    # cancelled while queued — already terminal, never ran
                    self.stats.cancelled += 1
                    continue
                self._running += 1
                self.stats.peak_running = max(self.stats.peak_running, self._running)
                depth_now = self._live_waiting_locked()
                running_now = self._running
            obs.gauge("scheduler_queue_depth").set(depth_now)
            obs.gauge("scheduler_running").set(running_now)
            try:
                with obs.span(
                    "job.run", job=handle.spec.name, job_id=handle.job_id
                ):
                    self._execute(handle)
            finally:
                with self._cond:
                    self._running -= 1
                    running_now = self._running
                    stats_now = SchedulerStats(**vars(self.stats))
                    self._cond.notify_all()
                obs.gauge("scheduler_running").set(running_now)
                # from the copy: the registry lock never nests under _cond
                obs.publish_gauges("scheduler", stats_now)

    def _check_cancel(self, handle: JobHandle) -> None:
        if handle.cancel_requested:
            raise JobCancelled(handle.spec.name)

    def _execute(self, handle: JobHandle) -> None:
        """Run one claimed job, retrying failed attempts up to the spec's
        ``max_retries``.  The handle — and with it the event log — spans
        every attempt, each retry re-seeds from the shared tier (so the
        failed attempt's absorbed-or-inserted work carries forward), and
        cancellation is honored immediately, never retried."""
        spec = handle.spec
        last_exc: BaseException | None = None
        for attempt in range(spec.max_retries + 1):
            if attempt:
                handle._add_event(
                    "retry",
                    f"attempt {attempt + 1}/{spec.max_retries + 1} after "
                    f"{type(last_exc).__name__}",
                )
                obs.counter("job_retries_total", job=spec.name).inc()
            try:
                self._run_attempt(handle)
                return
            except JobCancelled:
                handle._finish(JobState.CANCELLED, "cancelled while running")
                with self._cond:
                    self.stats.cancelled += 1
                return
            except BaseException as exc:  # noqa: BLE001 — job isolation boundary
                last_exc = exc
                handle.error = exc
                if attempt >= spec.max_retries:
                    handle._finish(JobState.FAILED, f"{type(exc).__name__}: {exc}")
                    with self._cond:
                        self.stats.failed += 1
                    return
                handle._add_event(
                    "attempt_failed", f"{type(exc).__name__}: {exc}"
                )

    def _run_attempt(self, handle: JobHandle) -> None:
        """One solver construction + reconstruction + absorb cycle."""
        spec = handle.spec
        solver = None
        try:
            d = spec.materialize()
            self._check_cancel(handle)
            solver = MLRSolver(spec.geometry, spec.config, admm=spec.admm)
            if solver.snapshot_quarantined:
                # the job's requested warm-start snapshot was corrupt; the
                # solver quarantined it (counted and logged there)
                # and started cold — record it where operators look first
                # (the job's own event log)
                handle._add_event(
                    "snapshot_quarantined", str(spec.config.memo_snapshot)
                )
            # an explicit per-job snapshot (already loaded by the solver)
            # takes precedence over the shared tier — seeding on top would
            # overwrite the partitions the user asked for
            if self.config.share_memo and spec.config.memo_snapshot is None:
                try:
                    seeded = self.memo_service.seed(solver.executor)
                except Exception as exc:  # noqa: BLE001 — tier seed only
                    # a tier incompatible with this job's memo config (tau /
                    # encoder mismatch) means a cold start, not a dead job —
                    # mirroring the absorb side of the same contract
                    handle._add_event(
                        "seed_failed", f"{type(exc).__name__}: {exc}"
                    )
                    obs.counter("job_seed_failed_total", job=spec.name).inc()
                    seeded = False
                if seeded:
                    handle._add_event(
                        "warm_start",
                        f"generation {self.memo_service.generation}",
                    )
            baseline = solver.executor.db_stats_total()
            handle.db_entries_start = solver.executor.db_entries_total()
            self._check_cancel(handle)

            def on_iteration(it, _u, info):
                handle.iterations = it + 1
                handle._add_event("iteration", f"outer={it} loss={info.get('loss')}")
                self._check_cancel(handle)

            result = solver.reconstruct(d, u0=spec.u0, callback=on_iteration)
            handle.result = result
            handle.memo_delta = solver.executor.db_stats_total().delta(baseline)
            handle.db_entries_end = solver.executor.db_entries_total()
            if self.config.share_memo:
                try:
                    self.memo_service.absorb(solver.executor)
                except Exception as exc:  # noqa: BLE001 — tier update only
                    # the reconstruction succeeded; a rejected/failed tier
                    # merge (e.g. a remote daemon pinned to another encoder)
                    # must not turn a DONE job into a FAILED one
                    handle._add_event(
                        "absorb_failed", f"{type(exc).__name__}: {exc}"
                    )
            handle._finish(JobState.DONE)
            with self._cond:
                self.stats.completed += 1
        finally:
            if solver is not None:
                solver.close()
