"""Job model of the reconstruction service.

One *job* is one complete reconstruction: geometry, a projections source,
the solver configuration, and a priority.  Jobs are submitted to a
:class:`~repro.service.scheduler.ReconstructionScheduler`, which hands back
a :class:`JobHandle` — the caller's window onto the job's lifecycle::

    queued ──▶ running ──▶ done
       │          ├──────▶ failed
       └──────────┴──────▶ cancelled

Handles are thread-safe.  Cancellation is *cooperative*: a queued job is
dropped before it starts, a running job observes the request at its next
outer ADMM iteration (through the solver callback) and unwinds cleanly —
no thread is ever killed mid-chunk.  Every state transition and every
completed iteration is appended to the handle's event log with a
timestamp, and a finished job carries its reconstruction result plus the
:class:`~repro.core.memo_db.MemoDBStats` *delta* — the database traffic
this job alone generated, which is how cross-job warm-start gains are
quantified on a stats-carrying shared database.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from ..core.config import MLRConfig
from ..core.memo_db import MemoDBStats
from ..core.mlr_solver import MLRResult
from ..lamino.geometry import LaminoGeometry
from ..solvers.admm import ADMMConfig

__all__ = ["JobState", "JobCancelled", "JobEvent", "JobSpec", "JobHandle"]


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class JobCancelled(RuntimeError):
    """Raised inside a worker to unwind a cooperatively cancelled job."""


@dataclass(frozen=True)
class JobEvent:
    """One timestamped lifecycle observation.

    ``t`` is ``time.monotonic()`` — the clock every duration (queue wait,
    run time) is derived from, immune to wall-clock adjustment.  ``wall``
    is ``time.time()`` at the same instant, kept strictly for display
    (log correlation, human-readable timelines); never subtract walls.
    """

    t: float
    kind: str
    detail: str = ""
    wall: float = 0.0

    @classmethod
    def now(cls, kind: str, detail: str = "") -> "JobEvent":
        return cls(time.monotonic(), kind, detail, wall=time.time())


@dataclass
class JobSpec:
    """Everything needed to run one reconstruction as a service job.

    projections:
        The scan data — an ndarray, or a zero-argument callable producing
        one (so acquisition / staging I/O happens on the worker, not at
        submit time).
    priority:
        Larger runs earlier; ties break FIFO by submission order.
    max_retries:
        How many times a *failed* attempt is re-run before the job goes
        ``failed`` (0 = the historical run-once behavior).  Retried jobs
        keep one event log across attempts (each retry appends a ``retry``
        event) and re-seed from the shared memo tier, so work the failed
        attempt already inserted is not recomputed.  Cancellation is never
        retried.
    """

    name: str
    geometry: LaminoGeometry
    projections: np.ndarray | Callable[[], np.ndarray]
    config: MLRConfig = field(default_factory=MLRConfig)
    admm: ADMMConfig | None = None
    priority: int = 0
    u0: np.ndarray | None = None
    max_retries: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("name must be a non-empty string")
        if not isinstance(self.geometry, LaminoGeometry):
            raise ValueError(
                f"geometry must be a LaminoGeometry, got {type(self.geometry).__name__}"
            )
        if not (isinstance(self.projections, np.ndarray) or callable(self.projections)):
            raise ValueError(
                "projections must be an ndarray or a zero-argument callable, "
                f"got {type(self.projections).__name__}"
            )
        if not isinstance(self.config, MLRConfig):
            raise ValueError(
                f"config must be an MLRConfig, got {type(self.config).__name__}"
            )
        if self.admm is not None and not isinstance(self.admm, ADMMConfig):
            raise ValueError(
                f"admm must be an ADMMConfig or None, got {type(self.admm).__name__}"
            )
        if isinstance(self.priority, bool) or not isinstance(self.priority, int):
            raise ValueError(f"priority must be an int, got {self.priority!r}")
        if (
            isinstance(self.max_retries, bool)
            or not isinstance(self.max_retries, int)
            or self.max_retries < 0
        ):
            raise ValueError(
                f"max_retries must be an int >= 0, got {self.max_retries!r}"
            )

    def materialize(self) -> np.ndarray:
        """Resolve the projections source (runs the callable, if any)."""
        d = self.projections() if callable(self.projections) else self.projections
        if not isinstance(d, np.ndarray):
            raise TypeError(
                f"projections source for job {self.name!r} produced "
                f"{type(d).__name__}, expected an ndarray"
            )
        return d


class JobHandle:
    """Thread-safe view of one submitted job."""

    def __init__(self, spec: JobSpec, job_id: int) -> None:
        self.spec = spec
        self.job_id = job_id
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._cancel = threading.Event()
        self._state = JobState.QUEUED  # guarded-by: self._lock
        self.events: list[JobEvent] = []  # guarded-by: self._lock
        self.result: MLRResult | None = None
        self.error: BaseException | None = None
        #: database traffic this job generated (stats delta over the run)
        self.memo_delta: MemoDBStats | None = None
        #: database entries visible to this job at start / at completion
        self.db_entries_start = 0
        self.db_entries_end = 0
        self.iterations = 0
        self._add_event("submitted")

    # -- observation ---------------------------------------------------------------------

    @property
    def state(self) -> JobState:
        with self._lock:
            return self._state

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state; True if it did."""
        return self._done.wait(timeout)

    # -- control -------------------------------------------------------------------------

    def cancel(self) -> bool:
        """Request cooperative cancellation.

        A still-queued job transitions to ``cancelled`` immediately (it will
        never run); a running job is flagged and unwinds at its next outer
        iteration.  Returns False if the job already finished.
        """
        with self._lock:
            if self._state.terminal:
                return False
            self._cancel.set()
            if self._state is JobState.QUEUED:
                self._finish_locked(JobState.CANCELLED, "cancelled while queued")
            else:
                self.events.append(JobEvent.now("cancel_requested"))
        return True

    # -- scheduler-side transitions ------------------------------------------------------

    def _add_event(self, kind: str, detail: str = "") -> None:
        with self._lock:
            self.events.append(JobEvent.now(kind, detail))

    def _claim(self) -> bool:
        """queued -> running, atomically; False if the job was cancelled
        (or otherwise left the queue) before a worker reached it."""
        with self._lock:
            if self._state is not JobState.QUEUED or self._cancel.is_set():
                return False
            self._state = JobState.RUNNING
            self.events.append(JobEvent.now("running"))
            return True

    def _finish_locked(self, state: JobState, detail: str = "") -> None:
        self._state = state
        self.events.append(JobEvent.now(state.value, detail))
        self._done.set()

    def _finish(self, state: JobState, detail: str = "") -> None:
        with self._lock:
            if not self._state.terminal:
                self._finish_locked(state, detail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobHandle(id={self.job_id}, name={self.spec.name!r}, "
            f"state={self.state.value})"
        )
