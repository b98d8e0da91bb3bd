"""Streaming pipelined reconstruction: overlapped read -> compute -> write.

The subsystem that hides I/O behind the memoized solver: bounded queues
with backpressure (:mod:`.queues`), the SSD chunk source (:mod:`.reader`)
and sink (:mod:`.writer`), the staged orchestrator (:mod:`.pipeline`) and
the incremental projection source (:mod:`.ingest`).  Pipelined execution
is a mode of the executor, not a wrapper around it: an executor built with
``pipeline=PipelineConfig(...)`` (what ``MLRConfig(pipeline=...)`` passes
down) runs each op sweep's in-memory :class:`ArraySource` and
:class:`SlabAssembler` (re-exported from :mod:`repro.lamino.chunking`)
through a :class:`ChunkPipeline`.
"""

from ..lamino.chunking import ArraySource, SlabAssembler
from .ingest import StreamingIngest
from .pipeline import ChunkPipeline, PipelineConfig, PipelineStats
from .queues import BoundedQueue, QueueClosed, QueueStats
from .reader import SpillSource
from .writer import SpillSlabWriter

__all__ = [
    "StreamingIngest",
    "ChunkPipeline",
    "PipelineConfig",
    "PipelineStats",
    "BoundedQueue",
    "QueueClosed",
    "QueueStats",
    "ArraySource",
    "SpillSource",
    "SlabAssembler",
    "SpillSlabWriter",
]
