"""Ablation of this reproduction's engineering deviations.

The paper's memoization as literally described (verbatim value reuse, no
staleness bound) is numerically unstable at reproduction scale; this bench
quantifies what each added mechanism buys — the evidence behind the design
deviations recorded on the ``MemoConfig`` fields (``scale_correction``,
``max_consecutive_reuse``) in ``src/repro/core/config.py``; the report is
``benchmarks/results/ablation_deviations.txt``.
"""

import numpy as np
import pytest

from benchmarks._util import emit
from repro.core import MemoConfig, MLRConfig, MLRSolver
from repro.harness.datasets import SMALL, build
from repro.lamino import LaminoOperators
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
        "no scale correction (verbatim reuse)": {"scale_correction": False},
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
    lines = ["Ablation: engineering deviations (accuracy vs exact solver)"]
    lines += [f"  {name:<40} acc={acc:<8} memo={memo}" for name, acc, memo in rows]
    emit("ablation_deviations", "\n".join(lines))
    full = results["full (affine reuse + staleness bound)"]
    # each removed mechanism hurts (or at best matches) accuracy
    assert full >= results["no scale correction (verbatim reuse)"] - 0.05
    assert full >= results["no staleness bound"] - 0.05
    # verbatim reuse is catastrophically worse (the divergence that motivated
    # affine reuse)
    assert results["no scale correction (verbatim reuse)"] < full - 0.1
    assert np.isfinite(full)
