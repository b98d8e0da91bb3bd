"""Table 1: reconstruction accuracy vs the similarity threshold tau."""

import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


def test_tab01_accuracy(benchmark):
    result = benchmark.pedantic(
        E.tab01_accuracy, kwargs=dict(n_outer=24, quick=False),
        iterations=1, rounds=1,
    )
    emit("tab01_accuracy", result.report())
    v = result.values
    accs = v["accuracies"]
    # larger tau -> higher accuracy (the Table 1 trend): non-decreasing in
    # tau up to a 0.02 wiggle between adjacent taus, and higher across the
    # sweep
    for tau, lo, hi in zip(v["taus"][1:], accs, accs[1:]):
        assert hi >= lo - 0.02, f"accuracy falls {lo:.4f} -> {hi:.4f} at tau={tau}"
    by_tau = dict(zip(v["taus"], accs))
    assert by_tau[0.96] > by_tau[0.86]
    assert by_tau[0.94] > by_tau[0.88]
    # every threshold keeps the reconstruction close to the exact solver's
    assert min(accs) >= 0.95, accs
    # and memoization stays substantial throughout the sweep
    assert all(m > 0.3 for m in v["memo_fractions"])
