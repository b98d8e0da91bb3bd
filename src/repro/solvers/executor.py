"""Operation-executor abstraction: where memoization plugs into the solver.

The LSP inner loop never calls :class:`~repro.lamino.operators.LaminoOperators`
directly; it goes through an *executor* so that mLR's memoization engine can
intercept each FFT operation chunk-by-chunk without touching solver code.
The contract (duck-typed; :class:`DirectExecutor` is the reference
implementation) is:

- ``fu1d / fu1d_adj / fu2d / fu2d_adj / f2d / f2d_adj`` — the six operations
  of Algorithm 1, full-array in/out; implementations are free to partition
  the work into chunks internally,
- ``fu2d(..., subtract=dhat)`` — the fused subtract-in-kernel variant of
  Section 4.2 (Figure 5b): returns ``Fu2D(x) - dhat`` from a single call,
- ``begin_outer / begin_inner`` — iteration markers used by memoization to
  distinguish revisits of the same chunk location,
- ``op_counts`` — dict op-name -> number of chunk-level invocations,
- ``sweep_stream`` — the *streaming* form of one op sweep: consume
  ``(chunk, payload)`` items in chunk order, yield ``(chunk, output)`` pairs.
  The full-array methods are thin drivers over it, and the pipelined
  execution mode (:mod:`repro.pipeline`) feeds it from a reader stage.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..lamino.chunking import iter_chunks
from ..lamino.operators import LaminoOperators
from ..obs import runtime as obs

__all__ = ["DirectExecutor", "SWEEP_AXIS", "SWEEP_KERNELS"]

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
#: intercepts at ``sweep_stream``, not per kernel — binds the same methods
#: as the raw computation of a miss.
SWEEP_KERNELS = {
    "Fu1D": "_run_fu1d",
    "Fu1D*": "_run_fu1d_adj",
    "Fu2D": "_run_fu2d",
    "Fu2D*": "_run_fu2d_adj",
}


class DirectExecutor:
    """Chunk-streaming executor with no memoization (the paper's baseline).

    ``chunk_size`` mirrors the GPU pipeline granularity: ``fu1d`` partitions
    along the volume x-axis, ``fu2d``/``fu2d_adj`` along the detector
    row-frequency axis, ``f2d``/``f2d_adj`` along the angle axis.  Setting
    ``chunk_size=None`` disables chunking (single full-array call).
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

    # -- chunk helpers ---------------------------------------------------------------

    def _chunks(self, n: int):
        size = self.chunk_size if self.chunk_size is not None else n
        return iter_chunks(n, size)

    # -- streaming sweep API (consumed by repro.pipeline) ------------------------------

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

    def sweep_stream(self, op: str, items, n_chunks: int | None = None):
        """Streaming chunk sweep: consume ``(chunk, payload)`` in chunk
        order, yield ``(chunk, output)`` as each chunk completes.

        Processing is strictly in arrival order on the calling thread, so a
        pipelined run produces bit-identical numerics to the monolithic
        full-array path.  ``n_chunks`` is accepted for interface parity with
        the memoized executor (which needs the sweep size up front).
        """
        del n_chunks  # chunk-at-a-time execution needs no lookahead
        kernel = self.chunk_kernel(op)
        for chunk, payload in items:
            self.op_counts[op] += 1
            with obs.span(f"sweep.{op}", chunk=chunk.index):
                out = kernel(chunk, payload)
            yield chunk, out

    # -- the six operations (thin drivers over the streaming sweep, so the
    # monolithic and pipelined paths share one chunk loop) -----------------------------

    def _sweep(self, op: str, items, n_chunks: int, axis: int) -> np.ndarray:
        parts = [out for _, out in self.sweep_stream(op, items, n_chunks)]
        return np.concatenate(parts, axis=axis)

    def fu1d(self, u: np.ndarray) -> np.ndarray:
        chunks = list(self._chunks(u.shape[0]))
        return self._sweep(
            "Fu1D", ((c, u[c.slice]) for c in chunks), len(chunks), axis=0
        )

    def fu1d_adj(self, u1: np.ndarray) -> np.ndarray:
        chunks = list(self._chunks(u1.shape[0]))
        return self._sweep(
            "Fu1D*", ((c, u1[c.slice]) for c in chunks), len(chunks), axis=0
        )

    def fu2d(self, u1: np.ndarray, subtract: np.ndarray | None = None) -> np.ndarray:
        chunks = list(self._chunks(u1.shape[1]))
        items = (
            (c, (u1[:, c.slice, :],
                 subtract[:, c.slice, :] if subtract is not None else None))
            for c in chunks
        )
        return self._sweep("Fu2D", items, len(chunks), axis=1)

    def fu2d_adj(self, r: np.ndarray) -> np.ndarray:
        chunks = list(self._chunks(r.shape[1]))
        return self._sweep(
            "Fu2D*", ((c, r[:, c.slice, :]) for c in chunks), len(chunks), axis=1
        )

    def f2d(self, d: np.ndarray) -> np.ndarray:
        chunks = list(self._chunks(d.shape[0]))
        return self._sweep(
            "F2D", ((c, d[c.slice]) for c in chunks), len(chunks), axis=0
        )

    def f2d_adj(self, dhat: np.ndarray) -> np.ndarray:
        chunks = list(self._chunks(dhat.shape[0]))
        return self._sweep(
            "F2D*", ((c, dhat[c.slice]) for c in chunks), len(chunks), axis=0
        )

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
