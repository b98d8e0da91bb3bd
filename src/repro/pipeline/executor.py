"""Pipelined executor: the ``pipeline=`` execution mode of the solver.

:class:`PipelinedExecutor` wraps any chunk-streaming executor
(:class:`~repro.solvers.executor.DirectExecutor` or
:class:`~repro.core.memo_engine.MemoizedExecutor` at any workers x shards
shape) and turns every full-array operation into a three-stage
:class:`~repro.pipeline.pipeline.ChunkPipeline`: a reader thread produces
input slabs, the wrapped executor's ``sweep_stream`` computes them in
chunk order on the calling thread, and a writer thread assembles output
slabs as they complete.

Because compute stays single-threaded and in chunk order, the result is
**bit-identical** to the monolithic path for every wrapped executor and
every queue depth — a property the test suite asserts — while the reader
and writer threads overlap slab materialization and output placement with
compute.  Everything else (events, statistics, iteration markers, the
encoder) transparently belongs to the wrapped executor.
"""

from __future__ import annotations

import numpy as np

from ..solvers.executor import SWEEP_AXIS
from .pipeline import ChunkPipeline, PipelineConfig, PipelineStats
from .reader import ArraySource
from .writer import SlabAssembler

__all__ = ["PipelinedExecutor"]


class PipelinedExecutor:
    """Drop-in executor that runs each op sweep as an overlapped pipeline."""

    _OWN_ATTRS = frozenset({"inner", "pipeline_config", "stats"})

    def __init__(self, inner, config: PipelineConfig | None = None) -> None:
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "pipeline_config", config or PipelineConfig())
        object.__setattr__(self, "stats", {})  # op -> PipelineStats

    # -- transparent delegation ----------------------------------------------------------

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __setattr__(self, name, value) -> None:
        if name in self._OWN_ATTRS:
            object.__setattr__(self, name, value)
        else:
            # attribute writes (e.g. installing a trained key encoder)
            # belong to the wrapped executor's state
            setattr(self.inner, name, value)

    # -- the pipelined sweep -------------------------------------------------------------

    def _chunk_size(self, n: int) -> int:
        size = self.inner.chunk_size
        return size if size is not None else n

    def _pipelined(self, op: str, array: np.ndarray, payload=None) -> np.ndarray:
        axis = SWEEP_AXIS[op]
        n = array.shape[axis]
        source = ArraySource(array, self._chunk_size(n), axis=axis, payload=payload)
        n_chunks = len(source)
        pipe = ChunkPipeline(
            source=source,
            sweep=lambda items: self.inner.sweep_stream(op, items, n_chunks),
            sink=SlabAssembler(axis_len=n, axis=axis),
            queue_depth=self.pipeline_config.queue_depth,
            op=op,
        )
        out = pipe.run()
        merged = self.stats.setdefault(op, PipelineStats()).merge(pipe.stats)
        # overwrite the run-local values ChunkPipeline.run just published
        # with this executor's cumulative per-op totals (same gauge series)
        merged.publish(op=op)
        return out

    # -- the six operations --------------------------------------------------------------

    def fu1d(self, u: np.ndarray) -> np.ndarray:
        return self._pipelined("Fu1D", u)

    def fu1d_adj(self, u1: np.ndarray) -> np.ndarray:
        return self._pipelined("Fu1D*", u1)

    def fu2d(self, u1: np.ndarray, subtract: np.ndarray | None = None) -> np.ndarray:
        # the fused kernel's dhat slab rides in the chunk payload
        def payload(chunk):
            return (
                chunk.take(u1),
                chunk.take(subtract) if subtract is not None else None,
            )

        return self._pipelined("Fu2D", u1, payload=payload)

    def fu2d_adj(self, r: np.ndarray) -> np.ndarray:
        return self._pipelined("Fu2D*", r)

    def f2d(self, d: np.ndarray) -> np.ndarray:
        return self._pipelined("F2D", d)

    def f2d_adj(self, dhat: np.ndarray) -> np.ndarray:
        return self._pipelined("F2D*", dhat)

    # -- statistics ----------------------------------------------------------------------

    def pipeline_stats(self) -> PipelineStats:
        """Aggregate queue/backpressure statistics over all pipelined sweeps."""
        agg = PipelineStats(sweeps=0)
        for stats in self.stats.values():
            agg.merge(stats)
        return agg
