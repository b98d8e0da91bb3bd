"""Figure 15: memory-node interconnect utilization vs GPU count."""

import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


def test_fig15_bandwidth(benchmark):
    result = benchmark.pedantic(
        E.fig15_bandwidth, kwargs=dict(sim_outer=10, quick=False),
        iterations=1, rounds=1,
    )
    rows = "\n".join(
        f"  {g} GPUs: {100 * u:.0f}%"
        for g, u in zip(result.gpu_counts, result.nic_utilization)
    )
    emit("fig15_bandwidth", "Figure 15: interconnect utilization\n" + rows)
    util = dict(zip(result.gpu_counts, result.nic_utilization))
    # utilization grows with GPU count and approaches the bottleneck
    assert util[16] > util[1]
    assert util[16] > 0.35  # heading towards the bottleneck (paper: near peak)
