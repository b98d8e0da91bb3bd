"""Chunk partitioning of volumes and intermediates.

The existing laminography pipeline (and mLR on top of it) never materializes
a whole operator application on the GPU: the partition axis of each operand
is split into fixed-size *chunks* that are streamed device-to-device.  A
chunk location (the ``(op, index)`` pair) is also the key granularity of the
paper's memoization cache — each location owns a private single-entry cache.

A sweep walks the chunk grid of an operand already in memory, taking each
chunk's slab as a view (:meth:`Chunk.take`), and feeds one
:class:`SlabAssembler` (the output slabs, back into one array).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["Chunk", "SlabAssembler", "check_tiling", "chunk_ranges", "iter_chunks"]


@dataclass(frozen=True)
class Chunk:
    """A slab of an array along one axis.

    ``index`` is the chunk location (0-based), ``lo:hi`` the slab range on
    ``axis``.
    """

    index: int
    axis: int
    lo: int
    hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo

    @property
    def slice(self) -> slice:
        return slice(self.lo, self.hi)

    def take(self, a: np.ndarray) -> np.ndarray:
        """View of the chunk's slab of ``a``."""
        sl = [slice(None)] * a.ndim
        sl[self.axis] = self.slice
        return a[tuple(sl)]


def chunk_ranges(n: int, size: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into consecutive ranges of width ``size`` (last may
    be short)."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    if n < 1:
        raise ValueError(f"axis length must be >= 1, got {n}")
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def iter_chunks(n: int, size: int, axis: int = 0) -> Iterator[Chunk]:
    """Yield :class:`Chunk` descriptors covering an axis of length ``n``."""
    for i, (lo, hi) in enumerate(chunk_ranges(n, size)):
        yield Chunk(index=i, axis=axis, lo=lo, hi=hi)


def check_tiling(spans, length: int) -> None:
    """Validate that ``(lo, hi)`` spans tile ``[0, length)`` exactly.

    Gaps, overlaps and duplicates all raise — a duplicate-plus-gap
    combination can match the total covered length while leaving
    uninitialized memory, so a plain covered-length check is not enough.
    """
    pos = 0
    for lo, hi in sorted(spans):
        if lo != pos:
            raise ValueError(
                "chunks do not tile the partition axis exactly "
                f"(gap or overlap at {lo}, expected {pos})"
            )
        pos = hi
    if pos != length:
        raise ValueError(f"chunks cover [0, {pos}) of a length-{length} axis")


class SlabAssembler:
    """Reassemble output slabs into one array along ``axis``.

    Accepts slabs in any order; ``result()`` verifies they tiled the axis
    exactly (:func:`check_tiling`) and concatenates them in chunk order.
    Concatenation keeps the slabs' layout: the USFFT ops emit
    transposed-layout slabs, and downstream reductions like the key
    encoder's pooling are layout-sensitive in their accumulation order, so
    copying slabs into a C-order buffer would keep the values but change
    the strides every later sweep sees, breaking bit-identity.
    """

    def __init__(self, axis_len: int, axis: int = 0) -> None:
        if axis_len < 1:
            raise ValueError(f"axis_len must be >= 1, got {axis_len}")
        self.axis = axis
        self.axis_len = axis_len
        self._parts: list[tuple[tuple[int, int], np.ndarray]] = []

    def __call__(self, chunk: Chunk, value: np.ndarray) -> None:
        self._parts.append(((chunk.lo, chunk.hi), np.asarray(value)))

    def result(self) -> np.ndarray:
        if not self._parts:
            raise ValueError("no slabs were written")
        self._parts.sort(key=lambda item: item[0])
        check_tiling((span for span, _value in self._parts), self.axis_len)
        return np.concatenate([value for _span, value in self._parts], axis=self.axis)
