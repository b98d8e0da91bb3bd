"""Solver construction: what a stack's geometry-only state costs to build.

One unit of work is two ready ``ADMMSolver`` s (``DirectExecutor``,
``chunk_size=8``) for one scan geometry, built three ways:

- **cold stack per solver** (the baseline of both entries): each solver gets
  its own ``LaminoOperators`` of a geometry the process has not seen — plans,
  the chunk-grid Lipschitz pass and the block CSRs it warms, twice.  What a
  per-job stack paid before equal stacks shared their operator state.
- **shared stack** (``solver_construction``): both solvers on one stack of an
  unseen geometry; the first pays all of it, the second reads the stack.
- **fresh stack of a known geometry**
  (``solver_construction_known_geometry``): each solver gets its own stack,
  but of a geometry whose operator state the process already holds — the
  scheduler's per-job stack: a registry hit, so no plan build, no pass and
  no block; what is left is two ``ADMMSolver`` constructions.

Plans, blocks and the estimate are shared process-wide by equal
``(geometry, half_width, oversample)`` (``repro.lamino.operators``), so
"unseen" has to be manufactured: every cold build takes the next geometry
of a sequence whose tilt differs by a millionth of a degree — a distinct
operator to the registry, the same cost to build.  The registry keeps the
four most recently used states, so the cold runs evict the known geometry:
its timing re-enters it in a warm-up call.

``gauges.plan_mb`` is the 2-D plan's separable tap arrays and
``gauges.block_mb`` its block cache after the construction of the *first*
stack of a geometry (``USFFT2DPlan.nbytes`` before and after): a later
equal stack shares those plans and adds nothing.  The sweeps add nothing to
it either (``tests/solvers/test_lipschitz_cache.py``), so the two are the
Fu2D operator's whole resident size, and ``trend.py`` gates both with the
timing.
"""

from __future__ import annotations

import itertools

from repro.lamino.geometry import LaminoGeometry
from repro.lamino.operators import LaminoOperators
from repro.solvers.admm import ADMMSolver
from repro.solvers.executor import DirectExecutor

from .harness import pair_entry, time_fn

CHUNK_SIZE = 8
_TILT_STEP_DEG = 1e-6
_unseen = itertools.count(1)


def _solver(ops: LaminoOperators) -> ADMMSolver:
    return ADMMSolver(ops, executor=DirectExecutor(ops, chunk_size=CHUNK_SIZE))


def run(quick: bool = True, repeat: int = 3) -> dict:
    h = 16 if quick else 32  # the ledger's service and solver geometries

    def geometry(tilt_deg: float = 61.0) -> LaminoGeometry:
        return LaminoGeometry(
            vol_shape=(64, h, 64), n_angles=32, det_shape=(h, 64), tilt_deg=tilt_deg
        )

    def unseen_stack() -> LaminoOperators:
        return LaminoOperators(geometry(61.0 + next(_unseen) * _TILT_STEP_DEG))

    def stack_per_solver():
        _solver(unseen_stack())
        _solver(unseen_stack())

    def shared_stack():
        ops = unseen_stack()
        _solver(ops)
        _solver(ops)

    known = geometry()

    def fresh_stack_known_geometry():
        _solver(LaminoOperators(known))
        _solver(LaminoOperators(known))

    ops = unseen_stack()
    plan_bytes = ops.plan2d.nbytes  # no block exists yet
    _solver(ops)
    block_bytes = ops.plan2d.nbytes - plan_bytes

    cold = time_fn(stack_per_solver, repeat=repeat, warmup=0)
    meta = dict(vol_shape=list(known.vol_shape), n_angles=known.n_angles, chunk_size=CHUNK_SIZE)
    return {
        "solver_construction": pair_entry(
            cold,
            time_fn(shared_stack, repeat=repeat, warmup=0),
            gauges={"plan_mb": plan_bytes / 1e6, "block_mb": block_bytes / 1e6},
            **meta,
        ),
        "solver_construction_known_geometry": pair_entry(
            cold, time_fn(fresh_stack_known_geometry, repeat=repeat, warmup=1), **meta
        ),
    }
