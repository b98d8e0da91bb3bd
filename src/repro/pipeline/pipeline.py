"""The staged pipeline: overlapped read -> memoized compute -> write.

:class:`ChunkPipeline` wires a chunk source (reader), a streaming sweep
(compute), and a sink (writer) through two :class:`BoundedQueue`s:

.. code-block:: text

    reader thread --[in_q]--> compute (calling thread) --[out_q]--> writer thread

The reader and writer run on worker threads; **compute runs on the calling
thread, single-threaded and in chunk order** — that is the property that
keeps a pipelined run bit-identical to the inline path while the
queues overlap the reader's I/O (SSD fetches, ingest arrival) and the
writer's I/O (reassembly, spills) with it.  Queue depths bound memory:
at most ``queue_depth`` input slabs and ``queue_depth`` output slabs are
in flight beyond the chunk being computed.

Failure of any stage closes both queues, unblocks its neighbors, and the
first real exception is re-raised from :meth:`ChunkPipeline.run` — no
stage can deadlock the others.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass, field

from ..core.config import PipelineConfig
from ..obs import runtime as obs
from .queues import BoundedQueue, QueueClosed, QueueStats

__all__ = ["PipelineConfig", "PipelineStats", "ChunkPipeline"]


@dataclass
class PipelineStats:
    """Counters of one (or several merged) pipeline runs."""

    sweeps: int = 0
    items: int = 0
    read_queue: QueueStats = field(default_factory=QueueStats)
    write_queue: QueueStats = field(default_factory=QueueStats)

    def merge(self, other: "PipelineStats") -> "PipelineStats":
        self.sweeps += other.sweeps
        self.items += other.items
        self.read_queue.merge(other.read_queue)
        self.write_queue.merge(other.write_queue)
        return self

    def publish(self, **labels) -> None:
        """Register these totals as ``pipeline_*`` gauges and both queues'
        as ``pipeline_queue_*{queue=...}`` in the :mod:`repro.obs` registry
        (no-op while observability is off)."""
        obs.publish_gauges("pipeline", self, **labels)
        obs.publish_gauges("pipeline_queue", self.read_queue, queue="read", **labels)
        obs.publish_gauges("pipeline_queue", self.write_queue, queue="write", **labels)


class _Stage(threading.Thread):
    """A pipeline stage thread that records, rather than prints, its death.

    The stage runs inside a copy of the *launching* thread's context
    (captured at construction), so trace spans opened in the stage parent
    to the pipeline's enclosing span instead of floating rootless —
    contextvars do not otherwise cross thread boundaries.
    """

    def __init__(self, name: str, target) -> None:
        super().__init__(name=f"pipeline-{name}", daemon=True)
        self._target_fn = target
        self._context = contextvars.copy_context()
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self._context.run(self._target_fn)
        except QueueClosed:
            pass  # a neighbor tore the pipeline down; it will report why
        except BaseException as exc:  # noqa: BLE001 — re-raised at join
            self.error = exc


class ChunkPipeline:
    """One overlapped sweep: source -> sweep_stream -> sink."""

    def __init__(self, source, sweep, sink, queue_depth: int = 2, op: str = "") -> None:
        self.source = source
        self.sweep = sweep
        self.sink = sink
        self.queue_depth = queue_depth
        self.op = op
        self.stats = PipelineStats(sweeps=1)

    def run(self):
        """Execute the pipeline to completion; returns ``sink.result()``
        (or ``None`` for result-less sinks)."""
        in_q = BoundedQueue(self.queue_depth, name="read")
        out_q = BoundedQueue(self.queue_depth, name="write")

        def read() -> None:
            # stage busy time = the stage span minus its queue block time
            # (pipeline_queue_block_seconds{queue=read, side=put})
            with obs.span("pipeline.reader", op=self.op):
                try:
                    for item in self.source:
                        in_q.put(item)
                finally:
                    in_q.close()

        def write() -> None:
            with obs.span("pipeline.writer", op=self.op):
                try:
                    for chunk, value in out_q:
                        self.sink(chunk, value)
                finally:
                    out_q.close()

        # opened before the stages are constructed so their copied contexts
        # inherit it: reader/writer/compute spans all parent to pipeline.run
        with obs.span("pipeline.run", op=self.op):
            reader = _Stage("reader", read)
            writer = _Stage("writer", write)
            reader.start()
            writer.start()
            compute_error: BaseException | None = None
            sweep_iter = self.sweep(iter(in_q))
            try:
                with obs.span("pipeline.compute", op=self.op):
                    for chunk, value in sweep_iter:
                        out_q.put((chunk, value))
                        self.stats.items += 1
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                compute_error = exc
            finally:
                # a suspended sweep generator holds executor state (buffered
                # queries, pending inserts); closing it runs its cleanup
                if hasattr(sweep_iter, "close"):
                    sweep_iter.close()
                in_q.close()
                out_q.close()
            reader.join()
            writer.join()
        self.stats.read_queue.merge(in_q.stats)
        self.stats.write_queue.merge(out_q.stats)

        # A dead reader starves compute and a dead writer chokes it, so the
        # neighbor's root cause outranks compute's secondary failure.
        for error in (writer.error, reader.error):
            if error is not None:
                raise error
        if compute_error is not None and not isinstance(compute_error, QueueClosed):
            raise compute_error
        return self.sink.result() if hasattr(self.sink, "result") else None
