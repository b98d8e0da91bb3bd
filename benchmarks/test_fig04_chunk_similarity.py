"""Figure 4: tau-similar prior chunks accumulate across ADMM iterations."""

import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


def test_fig04_chunk_similarity(benchmark):
    result = benchmark.pedantic(
        E.fig04_chunk_similarity, kwargs=dict(n_outer=40, quick=False),
        iterations=1, rounds=1,
    )
    emit("fig04_chunk_similarity", result.report())
    v = result.values
    for label, counts in v["counts"].items():
        assert counts[0] == 0  # nothing to match at the first iteration
        # similarity appears and grows as the solver converges
        assert max(counts) >= 4, label
        early = sum(counts[:5]) / 5
        late = sum(counts[-5:]) / 5
        assert late > early, label
