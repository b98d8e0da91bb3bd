"""Reconstruction service: multi-job scheduling + persistent memoization.

The production shell over the mLR solver — named jobs with priorities and
lifecycle states, a bounded-concurrency scheduler, and a memoization tier
that persists across jobs and processes (versioned, checksummed one-file
snapshots of any ``state_dict()`` tree: databases, ANN indexes, value stores,
the key encoder), so repeated scans of near-identical samples warm-start
from each other's accumulated (key, value) pairs.
"""

from .jobs import JobCancelled, JobEvent, JobHandle, JobSpec, JobState
from .scheduler import (
    AdmissionError,
    ReconstructionScheduler,
    SchedulerStats,
    ServiceConfig,
    SharedMemoService,
)
from .snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    load_memo_snapshot,
    quarantine_snapshot,
    read_snapshot,
    save_memo_snapshot,
    snapshot_exists,
    write_snapshot,
)

__all__ = [
    "JobCancelled",
    "JobEvent",
    "JobHandle",
    "JobSpec",
    "JobState",
    "AdmissionError",
    "ReconstructionScheduler",
    "SchedulerStats",
    "ServiceConfig",
    "SharedMemoService",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "load_memo_snapshot",
    "quarantine_snapshot",
    "read_snapshot",
    "save_memo_snapshot",
    "snapshot_exists",
    "write_snapshot",
]
