"""Growable contiguous row storage for incremental index structures.

The ANN indexes (and the memoization database's columns) grow one
row at a time for the lifetime of a reconstruction.  Holding those rows
in a Python list forces every search to re-``np.stack`` the whole
collection — an O(n) copy per query that dominates once databases reach
thousands of entries.  :class:`GrowableRows` keeps the rows in one
preallocated array that doubles on overflow (amortized O(1) append) and
exposes the filled prefix as a zero-copy view, so searches operate directly
on contiguous memory.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GrowableRows"]


class GrowableRows:
    """Amortized-O(1) append of fixed-shape rows into one contiguous array.

    Parameters
    ----------
    row_shape:
        Trailing shape of one row: ``()`` for scalars, ``(dim,)`` for
        vectors, or any higher-rank tuple.  An ``int`` is shorthand for a
        1-D row of that length.
    dtype:
        Element dtype of the backing buffer (appends are cast to it).
    capacity:
        Initial row capacity (must be >= 1; the buffer doubles as needed).
    """

    __slots__ = ("_buf", "_n")

    def __init__(self, row_shape=(), dtype=np.float32, capacity: int = 16) -> None:
        if isinstance(row_shape, (int, np.integer)):
            row_shape = (int(row_shape),)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._buf = np.empty((int(capacity), *row_shape), dtype=dtype)
        self._n = 0

    @classmethod
    def adopting(cls, rows: np.ndarray) -> "GrowableRows":
        """A full buffer whose rows *are* ``rows``, not a copy: with no
        spare capacity the first append moves everything to a fresh buffer,
        so ``rows`` is never written through this object."""
        self = cls.__new__(cls)
        self._buf, self._n = rows, len(rows)
        return self

    def __len__(self) -> int:
        return self._n

    @property
    def row_shape(self) -> tuple[int, ...]:
        return self._buf.shape[1:]

    @property
    def dtype(self) -> np.dtype:
        return self._buf.dtype

    @property
    def view(self) -> np.ndarray:
        """Zero-copy view of the filled prefix, shape ``(len, *row_shape)``.

        Valid until the next growth-triggering append; do not hold across
        mutations.
        """
        return self._buf[: self._n]

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        cap = self._buf.shape[0]
        if need <= cap:
            return
        cap = max(cap, 1)  # an adopted buffer may hold no rows at all
        while cap < need:
            cap *= 2
        buf = np.empty((cap, *self._buf.shape[1:]), dtype=self._buf.dtype)
        buf[: self._n] = self._buf[: self._n]
        self._buf = buf

    def append(self, row) -> None:
        """Append one row (shape ``row_shape``, cast to the buffer dtype)."""
        self._reserve(1)
        self._buf[self._n] = row
        self._n += 1

    def extend(self, rows) -> None:
        """Append ``m`` rows at once from an array of shape ``(m, *row_shape)``."""
        rows = np.asarray(rows)
        if rows.shape[1:] != self._buf.shape[1:]:
            raise ValueError(
                f"expected rows of shape (m, {self._buf.shape[1:]}), got {rows.shape}"
            )
        m = rows.shape[0]
        self._reserve(m)
        self._buf[self._n : self._n + m] = rows
        self._n += m
