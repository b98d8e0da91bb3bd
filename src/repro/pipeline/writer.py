"""Writer stage: an SSD sink that absorbs output slabs as they complete.

The writer is the pipeline's consumer: it receives ``(chunk, value)`` pairs
from the compute stage's output queue.  :class:`SpillSlabWriter` persists
each slab to SSD; running on its own thread, its ``np.save`` overlaps the
compute of later chunks.  (The in-memory sink every executor sweep feeds,
:class:`~repro.lamino.chunking.SlabAssembler`, lives beside ``Chunk``.)

A sink is any callable ``(chunk, value) -> None`` with an optional
``result()`` returning the finished artifact at pipeline join.
"""

from __future__ import annotations

import numpy as np

from ..lamino.chunking import Chunk
from ..memio.backing import SpillManager

__all__ = ["SpillSlabWriter"]


class SpillSlabWriter:
    """Persist each output slab to a :class:`SpillManager` under
    ``f"{prefix}{chunk.index}"`` — the out-of-core destination for
    reconstructions larger than host memory."""

    def __init__(self, manager: SpillManager, prefix: str) -> None:
        self.manager = manager
        self.prefix = prefix
        self.names: list[str] = []

    def __call__(self, chunk: Chunk, value: np.ndarray) -> None:
        name = f"{self.prefix}{chunk.index}"
        self.manager.spill(name, np.asarray(value))
        self.names.append(name)

    def result(self) -> list[str]:
        return list(self.names)
