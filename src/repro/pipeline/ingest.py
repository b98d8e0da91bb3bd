"""Streaming ingest: reconstruction starts before the scan finishes.

A laminography scan delivers projections incrementally — angle block by
angle block off the detector.  :class:`StreamingIngest` is the source
for that arrival process: an acquisition thread ``push()``es blocks
of whatever height the instrument produces, and the consumer side iterates
``(chunk, slab)`` items re-aligned to the solver's chunk grid, with
backpressure (a bounded block queue) toward the producer.

The first thing the solver does with projections under operation
cancellation is the embarrassingly chunk-parallel ``F2D`` transform
(``dhat = F2D d``, Algorithm 2 line 2) — so
:meth:`MLRSolver.reconstruct_streaming <repro.core.mlr_solver.MLRSolver.reconstruct_streaming>`
drives the executor's ``F2D`` sweep directly off this source: early angle
chunks are transformed while later ones are still being acquired, and the
ADMM iterations start the moment the last block lands instead of after a
serial ingest + transform phase.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..lamino.chunking import Chunk, iter_chunks
from .queues import BoundedQueue, QueueClosed

__all__ = ["StreamingIngest"]


class StreamingIngest:
    """Incremental projection source with chunk re-alignment.

    One producer thread calls :meth:`push` / :meth:`finish` (or uses the
    context manager); one consumer thread iterates.  Pushed blocks are cast
    to ``dtype`` and re-sliced into slabs matching ``chunk_size`` on the
    angle axis, so arbitrary arrival granularity maps onto the solver's
    chunk grid.
    """

    def __init__(
        self,
        data_shape: tuple[int, int, int],
        chunk_size: int,
        queue_depth: int = 4,
        dtype=np.complex64,
    ) -> None:
        if len(data_shape) != 3:
            raise ValueError(f"data_shape must be (n_angles, h, w), got {data_shape}")
        self.data_shape = tuple(data_shape)
        self.dtype = np.dtype(dtype)
        self.chunks = list(iter_chunks(data_shape[0], chunk_size))
        self._queue = BoundedQueue(queue_depth, name="ingest")
        self._buffered: list[np.ndarray] = []
        self._buffered_rows = 0
        self._pushed_rows = 0
        self._next_chunk = 0
        self._aborted = False

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    # -- producer side ------------------------------------------------------------------

    def push(self, block: np.ndarray) -> None:
        """Feed one block of projections (``(k, h, w)``, any ``k >= 1``).

        Blocks when the consumer is more than the queue depth behind
        (backpressure toward the instrument).  Raises :class:`QueueClosed`
        if the consumer abandoned the stream.

        The block is copied: the producer is free to reuse (overwrite) its
        acquisition buffer for the next frames immediately — the standard
        detector-driver pattern — without corrupting queued slabs.
        """
        block = np.asarray(block)
        if block.ndim != 3 or block.shape[1:] != self.data_shape[1:]:
            raise ValueError(
                f"block shape {block.shape} does not match frames of "
                f"{self.data_shape}"
            )
        if self._pushed_rows + block.shape[0] > self.data_shape[0]:
            raise ValueError(
                f"pushing {block.shape[0]} rows past the declared "
                f"{self.data_shape[0]}-angle scan"
            )
        block = np.array(block, dtype=self.dtype, order="C", copy=True)
        self._pushed_rows += block.shape[0]
        self._buffered.append(block)
        self._buffered_rows += block.shape[0]
        self._emit_ready()

    def _emit_ready(self) -> None:
        """Re-slice buffered rows into full chunk slabs and enqueue them."""
        while self._next_chunk < len(self.chunks):
            chunk = self.chunks[self._next_chunk]
            if self._buffered_rows < chunk.size:
                return
            rows = np.concatenate(self._buffered, axis=0) if len(self._buffered) > 1 \
                else self._buffered[0]
            slab, rest = rows[: chunk.size], rows[chunk.size:]
            if rest.shape[0] or rows.base is not None:
                # detach the slab from the block buffer: a queued slab must
                # not pin the (possibly much larger) pushed block, or the
                # queue depth no longer bounds resident memory.  (rows may
                # itself be a leftover view of an earlier oversized block.)
                slab = np.array(slab, copy=True)
            self._buffered = [rest] if rest.shape[0] else []
            self._buffered_rows -= chunk.size
            self._next_chunk += 1
            self._queue.put((chunk, np.ascontiguousarray(slab)))

    def finish(self) -> None:
        """Declare the scan complete; the consumer sees end-of-stream after
        the last full chunk."""
        if self._pushed_rows != self.data_shape[0] and not self._aborted:
            self._queue.close()
            raise ValueError(
                f"scan ended after {self._pushed_rows} of "
                f"{self.data_shape[0]} angles"
            )
        self._queue.close()

    def abort(self) -> None:
        """Tear the stream down (consumer sees a truncated stream)."""
        self._aborted = True
        self._queue.close()

    def __enter__(self) -> "StreamingIngest":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finish()
        else:
            self.abort()

    # -- consumer side ------------------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[Chunk, np.ndarray]]:
        delivered = 0
        try:
            while True:
                yield self._queue.get()
                delivered += 1
        except QueueClosed:
            if delivered != self.n_chunks:
                raise ValueError(
                    f"ingest stream ended after {delivered} of "
                    f"{self.n_chunks} chunks"
                ) from None
