"""Figure 16: memoization-database query latency distribution vs GPUs."""

import numpy as np
import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


def test_fig16_latency_cdf(benchmark):
    result = benchmark.pedantic(
        E.fig16_latency_cdf, kwargs=dict(sim_outer=10, quick=False),
        iterations=1, rounds=1,
    )
    lines = ["Figure 16: query latency under contention"]
    for g in result.gpu_counts:
        lat = np.asarray(result.latencies[g])
        lines.append(
            f"  {g:>2} GPUs: p50={np.median(lat) * 1e3:7.1f}ms "
            f"p99={np.percentile(lat, 99) * 1e3:7.1f}ms "
            f">100ms: {np.mean(lat > 0.1):.0%}"
        )
    emit("fig16_latency_cdf", "\n".join(lines))
    lat1 = np.asarray(result.latencies[result.gpu_counts[0]])
    lat16 = np.asarray(result.latencies[result.gpu_counts[-1]])
    # the distribution shifts right under contention
    assert np.median(lat16) >= np.median(lat1)
    # a significant share of queries exceeds 100ms at 16 GPUs (paper: 43%)
    assert np.mean(lat16 > 0.1) > 0.2
