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
    accs = dict(zip(result.taus, result.accuracies))
    # larger tau -> higher accuracy (the Table 1 trend), allowing small
    # non-monotonic wiggle between adjacent taus
    assert accs[0.96] > accs[0.86]
    assert accs[0.94] > accs[0.88]
    # the default threshold keeps accuracy in a usable band
    assert accs[0.92] > 0.6
    # and memoization stays substantial throughout the sweep
    assert all(m > 0.3 for m in result.memo_fractions)
