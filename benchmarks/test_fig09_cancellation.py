"""Figure 9: operation cancellation and fusion ablation."""

import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


def _get(rows, dataset, workload, variant_prefix):
    for ds, wl, var, sec in rows:
        if ds == dataset and wl == workload and var.startswith(variant_prefix):
            return sec
    raise KeyError((dataset, workload, variant_prefix))


def test_fig09_cancellation(benchmark):
    result = benchmark.pedantic(E.fig09_cancellation, iterations=1, rounds=1)
    emit("fig09_cancellation", result.report())
    for ds in ("1K", "1.5K"):
        full = _get(result.rows, ds, "LSP(4xFFT)", "w/ cancellation w/ fusion")
        none = _get(result.rows, ds, "LSP(4xFFT)", "w/o cancellation")
        assert full < none  # cancellation + fusion wins
    # cancellation WITHOUT fusion pays the CPU-subtraction penalty relative
    # to the fused variant (the Section 4.2 effect)
    small_nofuse = _get(result.rows, "1K", "LSP(4xFFT)", "w/ cancellation w/o fusion")
    small_fused = _get(result.rows, "1K", "LSP(4xFFT)", "w/ cancellation w/ fusion")
    assert small_nofuse >= small_fused * 0.95
