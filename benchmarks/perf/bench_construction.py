"""Solver construction: what a stack's geometry-only state costs to build.

One unit of work is two ready ``ADMMSolver`` s (``DirectExecutor``,
``chunk_size=8``) for one geometry.  The optimized path builds both on one
``LaminoOperators`` stack: the first pays the plans, the chunk-grid
Lipschitz pass and the block CSRs it warms, the second reuses all of it.
The baseline gives each solver its own cold stack — what a per-job stack
(the scheduler's today) pays.  ``gauges.plan_mb`` is the 2-D plan's
separable tap arrays and ``gauges.block_mb`` its block cache after
construction (``USFFT2DPlan.nbytes`` before and after the first solver): the
sweeps add nothing to it (``tests/solvers/test_lipschitz_cache.py``), so the
two are the Fu2D operator's whole resident size, and ``trend.py`` gates both
with the timing.
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


def run(quick: bool = True, repeat: int = 3) -> dict:
    h = 16 if quick else 32  # the ledger's service and solver geometries
    geom = LaminoGeometry(vol_shape=(64, h, 64), n_angles=32, det_shape=(h, 64))

    def shared_stack():
        ops = LaminoOperators(geom)
        _solver(ops)
        _solver(ops)

    def stack_per_solver():
        _solver(LaminoOperators(geom))
        _solver(LaminoOperators(geom))

    ops = LaminoOperators(geom)
    plan_bytes = ops.plan2d.nbytes  # no block exists yet
    _solver(ops)
    block_bytes = ops.plan2d.nbytes - plan_bytes
    entry = pair_entry(
        time_fn(stack_per_solver, repeat=repeat, warmup=0),
        time_fn(shared_stack, repeat=repeat, warmup=0),
        vol_shape=list(geom.vol_shape),
        n_angles=geom.n_angles,
        chunk_size=CHUNK_SIZE,
        gauges={"plan_mb": plan_bytes / 1e6, "block_mb": block_bytes / 1e6},
    )
    return {"solver_construction": entry}
