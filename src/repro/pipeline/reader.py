"""Reader stage: an SSD chunk source with double-buffered prefetch.

The reader is the pipeline's producer: it materializes one input slab per
chunk and pushes ``(chunk, payload)`` items into the bounded inter-stage
queue.  :class:`SpillSource` serves slabs persisted in a
:class:`~repro.memio.backing.SpillManager`.  It keeps ``prefetch_depth``
loads in flight ahead of the cursor (double-buffered at the default depth
1), so the SSD read of chunk ``i+1`` overlaps the compute of chunk ``i`` —
the exact mechanics tomocupy-style conveyor readers use to hide ingest I/O
behind GPU work.  (The in-memory source every executor sweep walks,
:class:`~repro.lamino.chunking.ArraySource`, lives beside ``Chunk``.)

A source is any iterable of ``(chunk, payload)`` pairs in ascending chunk
order; the compute stage consumes them through the executor's
``sweep_stream``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..lamino.chunking import Chunk
from ..memio.backing import SpillManager

__all__ = ["SpillSource"]


class SpillSource:
    """Prefetching chunk loader over a :class:`SpillManager`.

    Slabs must have been spilled under ``f"{prefix}{chunk.index}"``.  While
    chunk ``i`` is being served, the loads of chunks ``i+1 .. i+depth`` are
    already in flight on the manager's worker threads.
    """

    def __init__(
        self,
        manager: SpillManager,
        chunks: Sequence[Chunk],
        prefix: str,
        prefetch_depth: int = 1,
    ) -> None:
        if prefetch_depth < 0:
            raise ValueError(f"prefetch_depth must be >= 0, got {prefetch_depth}")
        self.manager = manager
        self.chunks = list(chunks)
        self.prefix = prefix
        self.prefetch_depth = prefetch_depth

    def name_of(self, chunk: Chunk) -> str:
        return f"{self.prefix}{chunk.index}"

    def __len__(self) -> int:
        return len(self.chunks)

    def __iter__(self) -> Iterator[tuple[Chunk, np.ndarray]]:
        n = len(self.chunks)
        for j in range(min(self.prefetch_depth, n)):
            self.manager.prefetch(self.name_of(self.chunks[j]))
        for i, chunk in enumerate(self.chunks):
            ahead = i + self.prefetch_depth
            if self.prefetch_depth > 0 and ahead < n:
                self.manager.prefetch(self.name_of(self.chunks[ahead]))
            yield chunk, self.manager.fetch(self.name_of(chunk))
