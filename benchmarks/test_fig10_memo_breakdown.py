"""Figure 10: memoization case breakdown per FFT operation."""

import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


def test_fig10_memo_breakdown(benchmark):
    result = benchmark.pedantic(
        E.fig10_memo_breakdown, kwargs=dict(sim_outer=12, quick=False),
        iterations=1, rounds=1,
    )
    emit("fig10_memo_breakdown", result.report())
    v = result.values
    for _op, cases in v["data"].items():
        orig = sum(cases["orig"].values())
        fail = sum(cases["fail"].values())
        suc = sum(cases["suc"].values())
        cached = sum(cases["cached"].values())
        # failed memoization costs barely more than the original computation
        assert fail < 1.2 * orig
        # successful memoization beats computing; the local cache beats both
        assert suc < orig
        assert cached < suc
    # all three cases occur in a real run
    assert set(v["case_distribution"]) >= {"miss", "db_hit", "cache_hit"}
