"""Streaming ingest: reconstruction starts before the scan finishes.

A fixed-depth FIFO with backpressure and close semantics
(:mod:`.queues`) and the incremental projection source built on it
(:mod:`.ingest`), which
:meth:`MLRSolver.reconstruct_streaming <repro.core.mlr_solver.MLRSolver.reconstruct_streaming>`
consumes while an acquisition thread is still pushing angle blocks.
"""

from .ingest import StreamingIngest
from .queues import BoundedQueue, QueueClosed, QueueStats

__all__ = [
    "StreamingIngest",
    "BoundedQueue",
    "QueueClosed",
    "QueueStats",
]
