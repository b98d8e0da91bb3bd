"""Ablation of this reproduction's engineering deviations.

The paper's memoization as literally described (no staleness bound, no
local cache) is compared with what this reproduction runs, under the
``MemoConfig`` default reuse rule (``Fu2D*`` alone) — the evidence behind
``max_consecutive_reuse`` in ``src/repro/core/config.py``; the report is
``benchmarks/results/ablation_deviations.txt``.  Scale-corrected (affine)
reuse is not ablated: it is always on.  At the perf ledger's solver
geometry verbatim ``Fu2D*`` reuse read an excess over the direct solve of
0.033 against 0.025, and with ``Fu1D*`` memoized too a data residual 5x
the direct solve's against 1.3x.
"""

import numpy as np
import pytest

from benchmarks._util import emit
from repro.core import MemoConfig, MLRConfig, MLRSolver
from repro.harness.datasets import SMALL, build
from repro.lamino import LaminoOperators
from repro.obs.report import table
from repro.solvers import ADMMConfig, ADMMSolver, accuracy

pytestmark = pytest.mark.slow

ADMM = ADMMConfig(alpha=1e-3, rho=0.5, n_outer=16, n_inner=4, step_max_rel=4.0)


def run_variant(geometry, ops, data, **memo_over):
    base = dict(tau=0.92, warmup_iterations=2, index_train_min=8, index_clusters=4)
    base.update(memo_over)
    cfg = MLRConfig(chunk_size=SMALL.sim_chunk, memo=MemoConfig(**base))
    res = MLRSolver(geometry, cfg, admm=ADMM, ops=ops).reconstruct(data)
    return res


def ablation():
    geometry, truth, data = build(SMALL)
    ops = LaminoOperators(geometry)
    ref = ADMMSolver(ops, ADMM).run(data)
    rows = []
    variants = {
        "full (affine reuse + staleness bound)": {},
        "no staleness bound": {"max_consecutive_reuse": 10_000},
        "no local cache": {"cache": None},
    }
    results = {}
    for name, over in variants.items():
        res = run_variant(geometry, ops, data, **over)
        acc = accuracy(ref.u.real, res.u.real)
        rows.append([name, round(acc, 3), round(res.memoized_fraction, 2)])
        results[name] = acc
    return rows, results


def test_ablation_deviations(benchmark):
    rows, results = benchmark.pedantic(ablation, iterations=1, rounds=1)
    emit("ablation_deviations", table(
        ["variant", "accuracy", "served of memoized-op lookups"], rows,
        "Ablation: engineering deviations (accuracy vs exact solver)",
    ) + f"\nmemoized ops: {', '.join(MemoConfig().memo_ops)} (the MemoConfig default)")
    full = results["full (affine reuse + staleness bound)"]
    # the removed mechanism hurts (or at best matches) accuracy
    assert full >= results["no staleness bound"] - 0.05
    assert np.isfinite(full)
