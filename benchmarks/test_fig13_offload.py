"""Figure 13: ADMM-Offload vs greedy and LRU baselines."""

import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


def test_fig13_offload(benchmark):
    result = benchmark.pedantic(E.fig13_offload, iterations=1, rounds=1)
    emit("fig13_offload", result.report())
    v = result.values
    best = v["outcomes"]["ADMM-Offload"]
    greedy = v["outcomes"]["ADMM greedy offload"]
    lru = v["outcomes"]["ADMM LRU offload"]
    base = v["outcomes"]["ADMM (no offload)"]
    # ADMM-Offload saves memory with (near-)zero exposed time
    assert best.memory_saving > 0.05
    assert best.time_loss < 0.05
    # greedy pays heavily on the critical path (paper: 81.5% loss)
    assert greedy.time_loss > 0.5
    # MT ordering: ADMM-Offload > greedy (paper: 1.38 vs 0.51)
    assert best.mt > greedy.mt
    # LRU cannot prefetch, so it also loses big (paper: 40.5% worse)
    assert lru.time_loss > best.time_loss
    assert base.peak_bytes >= best.peak_bytes
