"""Figure 12: private vs global memoization-cache hit rates."""

import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


def test_fig12_cache_hitrate(benchmark):
    result = benchmark.pedantic(
        E.fig12_cache_hitrate, kwargs=dict(n_outer=30, quick=False),
        iterations=1, rounds=1,
    )
    emit("fig12_cache_hitrate", result.report())
    import numpy as np

    v = result.values
    priv = np.mean([hr for _, hr in v["private_series"][3:]])
    glob = np.mean([hr for _, hr in v["global_series"][3:]])
    # similar hit rates (the Figure 12 observation) ...
    assert abs(priv - glob) < 0.35
    # ... at a fraction of the similarity-comparison cost (85% in the paper)
    assert v["comparison_saving"] > 0.5
