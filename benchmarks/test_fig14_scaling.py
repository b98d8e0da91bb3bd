"""Figure 14: FFT-operation and overall scaling across GPUs/nodes."""

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
    overall = dict(zip(result.gpu_counts, result.overall))
    # intra-node scaling helps (paper: 1.36x from 2 to 4 GPUs)
    assert overall[2] < overall[1]
    assert overall[4] < overall[2] * 1.02
    # diminishing returns past one node (paper: ~1% loss from 4 to 8)
    gain_intra = overall[1] / overall[4]
    gain_inter = overall[4] / overall[16]
    assert gain_intra > gain_inter
    # per-op speedup at 16 GPUs in the paper's ~2x ballpark for Fu1D
    fu1d = result.op_times["Fu1D"]
    assert fu1d[0] / fu1d[-1] > 1.5
