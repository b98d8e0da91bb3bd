"""Figures 14, 15 and 16 from one sweep: FFT-operation and overall scaling
across GPUs/nodes, memory-node interconnect utilization, and the
memoization-database query latency distribution (all three tables are in
``fig14_scaling.txt``)."""

import numpy as np
import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def scaling():
    return E.fig14_scaling(sim_outer=10, quick=False)


def test_fig14_scaling(benchmark, scaling):
    result = benchmark.pedantic(lambda: scaling, iterations=1, rounds=1)
    emit("fig14_scaling", result.report())
    v = result.values
    overall = dict(zip(v["gpu_counts"], v["overall"]))
    # intra-node scaling helps (paper: 1.36x from 2 to 4 GPUs)
    assert overall[2] < overall[1]
    assert overall[4] < overall[2] * 1.02
    # diminishing returns past one node (paper: ~1% loss from 4 to 8)
    gain_intra = overall[1] / overall[4]
    gain_inter = overall[4] / overall[16]
    assert gain_intra > gain_inter
    # per-op speedup at 16 GPUs in the paper's ~2x ballpark for Fu1D
    fu1d = v["op_times"]["Fu1D"]
    assert fu1d[0] / fu1d[-1] > 1.5


def test_fig15_bandwidth(scaling):
    v = scaling.values
    util = dict(zip(v["gpu_counts"], v["nic_utilization"]))
    # utilization grows with GPU count and approaches the bottleneck
    assert util[16] > util[1]
    assert util[16] > 0.35  # heading towards the bottleneck (paper: near peak)


def test_fig16_latency_cdf(scaling):
    v = scaling.values
    lat1 = np.asarray(v["latencies"][v["gpu_counts"][0]])
    lat16 = np.asarray(v["latencies"][v["gpu_counts"][-1]])
    # the distribution shifts right under contention
    assert np.median(lat16) >= np.median(lat1)
    # a significant share of queries exceeds 100ms at 16 GPUs (paper: 43%)
    assert np.mean(lat16 > 0.1) > 0.2
