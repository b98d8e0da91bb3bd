"""Operation-executor abstraction: where memoization plugs into the solver.

The LSP inner loop never calls :class:`~repro.lamino.operators.LaminoOperators`
directly; it goes through an *executor* so that mLR's memoization engine can
intercept each FFT operation chunk-by-chunk without touching solver code.
The contract (:class:`DirectExecutor` is the reference implementation and
the base of :class:`~repro.core.memo_engine.MemoizedExecutor`) is:

- ``fu1d / fu1d_adj / fu2d / fu2d_adj / f2d / f2d_adj`` — the six operations
  of Algorithm 1, full-array in/out, each one call to the one chunk loop
  ``_sweep`` (slice along ``SWEEP_AXIS[op]``, run each chunk, reassemble),
- ``fu2d(..., subtract=dhat)`` — the fused subtract-in-kernel variant of
  Section 4.2 (Figure 5b): returns ``Fu2D(x) - dhat`` from a single call,
- ``begin_outer / begin_inner`` — iteration markers used by memoization to
  distinguish revisits of the same chunk location,
- ``op_counts`` — dict op-name -> number of chunk-level invocations,
- ``_sweep(op, array, payload=None)`` — one op sweep over an operand that is
  already in memory: the seam the memoized executor overrides.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..lamino.chunking import Chunk, SlabAssembler, iter_chunks
from ..lamino.operators import LaminoOperators
from ..obs import runtime as obs

__all__ = ["DirectExecutor", "SWEEP_AXIS", "SWEEP_KERNELS", "operand_shape"]

#: Partition axis of each operation's operand (and of its output slab).
SWEEP_AXIS = {
    "Fu1D": 0,
    "Fu1D*": 0,
    "Fu2D": 1,
    "Fu2D*": 1,
    "F2D": 0,
    "F2D*": 0,
}

#: Sweep-scheduled (memoizable) op -> its single-chunk kernel method.  The
#: one dispatch table: ``chunk_kernel`` binds these for the chunk-at-a-time
#: sweep, and :class:`~repro.core.memo_engine.MemoizedExecutor` — which
#: intercepts at ``_sweep``, not per kernel — binds the same methods
#: as the raw computation of a miss.
SWEEP_KERNELS = {
    "Fu1D": "_run_fu1d",
    "Fu1D*": "_run_fu1d_adj",
    "Fu2D": "_run_fu2d",
    "Fu2D*": "_run_fu2d_adj",
}


def operand_shape(op: str, geometry) -> tuple[int, int, int]:
    """Shape of ``op``'s full-array operand: the volume (``Fu1D``), ``Fu1D``'s
    output (``Fu1D*``, ``Fu2D``) or the detector-plane array (the rest)."""
    n1, _n0, n2 = geometry.vol_shape
    u1 = (n1, geometry.det_shape[0], n2)
    return {"Fu1D": geometry.vol_shape, "Fu1D*": u1, "Fu2D": u1}.get(op, geometry.data_shape)


class DirectExecutor:
    """Chunked executor with no memoization (the paper's baseline).

    ``chunk_size`` mirrors the GPU pipeline granularity: ``fu1d``/``fu1d_adj``
    partition along the volume x-axis, ``fu2d``/``fu2d_adj`` along the
    detector row-frequency axis, ``f2d``/``f2d_adj`` along the angle axis.
    Setting ``chunk_size=None`` disables chunking (single full-array call).
    """

    def __init__(self, ops: LaminoOperators, chunk_size: int | None = None) -> None:
        self.ops = ops
        self.chunk_size = chunk_size
        self.op_counts: Counter[str] = Counter()
        self.outer_iteration = -1
        self.inner_iteration = -1

    # -- iteration markers ---------------------------------------------------------

    def begin_outer(self, iteration: int) -> None:
        self.outer_iteration = iteration

    def begin_inner(self, iteration: int) -> None:
        self.inner_iteration = iteration

    # -- the chunk grid --------------------------------------------------------------

    def _grid(self, op: str, n: int) -> list[Chunk]:
        """Chunks of an ``op`` sweep over an operand ``n`` long on
        ``SWEEP_AXIS[op]`` — ``chunk_size`` slabs, one slab when chunking
        is off.  A chunk's index is its memoization location."""
        size = self.chunk_size if self.chunk_size is not None else n
        return list(iter_chunks(n, size, axis=SWEEP_AXIS[op]))

    # -- the one chunk loop ----------------------------------------------------------

    def chunk_kernel(self, op: str):
        """Per-chunk kernel of ``op``: ``(chunk, payload) -> output slab``.

        The payload is the operation's input slab, except for ``Fu2D`` whose
        payload is ``(input_slab, subtract_slab | None)`` — the fused
        kernel's extra argument travels with the chunk.
        """
        name = SWEEP_KERNELS.get(op)
        if name is not None:
            kernel = getattr(self, name)
            if op == "Fu2D":
                return lambda chunk, payload: kernel(chunk, payload[0], payload[1])
            return kernel
        if op == "F2D":
            return lambda chunk, d_c: self.ops.f2d(d_c)
        if op == "F2D*":
            return lambda chunk, dhat_c: self.ops.f2d_adj(dhat_c)
        raise ValueError(f"unknown op {op!r}")

    def _sweep(self, op: str, array: np.ndarray, payload=None) -> np.ndarray:
        """The one chunk loop: ``array``'s chunk grid, in order, on the
        calling thread, each chunk's payload (its slab of ``array``, or
        ``payload(chunk)`` where the op's chunk carries more) through the
        op's kernel into one assembler."""
        axis = SWEEP_AXIS[op]
        n = array.shape[axis]
        kernel = self.chunk_kernel(op)
        sink = SlabAssembler(n, axis)
        for chunk in self._grid(op, n):
            item = chunk.take(array) if payload is None else payload(chunk)
            self.op_counts[op] += 1
            with obs.span(f"sweep.{op}", chunk=chunk.index):
                out = kernel(chunk, item)
            sink(chunk, out)
        return sink.result()

    # -- the six operations ----------------------------------------------------------

    def fu1d(self, u: np.ndarray) -> np.ndarray:
        return self._sweep("Fu1D", u)

    def fu1d_adj(self, u1: np.ndarray) -> np.ndarray:
        return self._sweep("Fu1D*", u1)

    def fu2d(self, u1: np.ndarray, subtract: np.ndarray | None = None) -> np.ndarray:
        # the fused kernel's dhat slab rides in the chunk payload
        def payload(chunk: Chunk):
            return chunk.take(u1), None if subtract is None else chunk.take(subtract)

        return self._sweep("Fu2D", u1, payload)

    def fu2d_adj(self, r: np.ndarray) -> np.ndarray:
        return self._sweep("Fu2D*", r)

    def f2d(self, d: np.ndarray) -> np.ndarray:
        return self._sweep("F2D", d)

    def f2d_adj(self, dhat: np.ndarray) -> np.ndarray:
        return self._sweep("F2D*", dhat)

    # -- single-chunk kernels (the SWEEP_KERNELS table's targets) ----------------------

    def _run_fu1d(self, chunk, u_c: np.ndarray) -> np.ndarray:
        return self.ops.fu1d(u_c)

    def _run_fu1d_adj(self, chunk, u1_c: np.ndarray) -> np.ndarray:
        return self.ops.fu1d_adj(u1_c)

    def _run_fu2d(self, chunk, u1_c: np.ndarray, sub: np.ndarray | None) -> np.ndarray:
        out = self.ops.fu2d(u1_c, rows=chunk.slice)
        if sub is not None:
            out = out - sub  # the fused kernel's extra argument (Fig. 5b)
        return out

    def _run_fu2d_adj(self, chunk, r_c: np.ndarray) -> np.ndarray:
        return self.ops.fu2d_adj(r_c, rows=chunk.slice)
