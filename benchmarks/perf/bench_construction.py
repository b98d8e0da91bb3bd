"""Solver construction: what a stack's geometry-only state costs to build.

One unit of work is two ready ``ADMMSolver`` s (``DirectExecutor``,
``chunk_size=8``) for one geometry.  The optimized path builds both on one
``LaminoOperators`` stack: the first pays the plans, the chunk-grid
Lipschitz pass and the block CSRs it warms, the second reuses all of it.
The baseline gives each solver its own cold stack — what a per-job stack
(the scheduler's today) pays.  ``gauges.block_mb`` is the 2-D plan's block
cache after construction: the sweeps add nothing to it, so it is the
operator's whole resident size, and ``trend.py`` gates it with the timing.
"""

from __future__ import annotations

from repro.lamino.geometry import LaminoGeometry
from repro.lamino.operators import LaminoOperators
from repro.solvers.admm import ADMMSolver
from repro.solvers.executor import DirectExecutor

from .harness import pair_entry, time_fn

CHUNK_SIZE = 8


def _solver(ops: LaminoOperators) -> ADMMSolver:
    return ADMMSolver(ops, executor=DirectExecutor(ops, chunk_size=CHUNK_SIZE))


def block_mb(ops: LaminoOperators) -> float:
    """Megabytes held by the 2-D plan's cached block operators."""
    return sum(
        m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        for m in ops.plan2d._blocks.values()
    ) / 1e6


def run(quick: bool = True, repeat: int = 3) -> dict:
    h = 16 if quick else 32  # the ledger's service and solver geometries
    geom = LaminoGeometry(vol_shape=(64, h, 64), n_angles=32, det_shape=(h, 64))

    def shared_stack():
        ops = LaminoOperators(geom)
        _solver(ops)
        _solver(ops)
        return ops

    def stack_per_solver():
        _solver(LaminoOperators(geom))
        _solver(LaminoOperators(geom))

    ops = shared_stack()
    widest = max(stop - start for start, stop, *_ in ops.plan2d._blocks)
    assert widest <= CHUNK_SIZE, f"construction built a {widest}-row block"
    entry = pair_entry(
        time_fn(stack_per_solver, repeat=repeat, warmup=0),
        time_fn(shared_stack, repeat=repeat, warmup=0),
        vol_shape=list(geom.vol_shape),
        n_angles=geom.n_angles,
        chunk_size=CHUNK_SIZE,
        gauges={"block_mb": block_mb(ops)},
    )
    return {"solver_construction": entry}
