"""Figure 11: key coalescing reduces per-key communication + search time."""

import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


def test_fig11_coalesce(benchmark):
    result = benchmark.pedantic(E.fig11_coalesce, iterations=1, rounds=1)
    emit("fig11_coalesce", result.report())
    assert result.improvement > 0.2  # paper reports 25%
    w = result.per_key["with"]
    wo = result.per_key["without"]
    assert w["communication"] < wo["communication"]
    assert w["similarity_search"] < wo["similarity_search"]
