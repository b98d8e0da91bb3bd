"""Figure 8: overall mLR performance on the three datasets."""

import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


def test_fig08_overall(benchmark):
    result = benchmark.pedantic(
        E.fig08_overall, kwargs=dict(n_outer=60, sim_outer=12, quick=False),
        iterations=1, rounds=1,
    )
    emit("fig08_overall", result.report())
    norms = {row[0]: row[3] for row in result.rows}
    # mLR wins on every dataset
    assert all(v < 1.0 for v in norms.values())
    # larger datasets benefit more (paper: 0.654 / 0.414 / 0.363)
    assert norms["2K"] < norms["1K"]
    # headline: tens of percent average improvement
    assert result.mean_improvement > 0.2
