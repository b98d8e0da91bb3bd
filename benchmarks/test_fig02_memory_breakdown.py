"""Figure 2: CPU memory consumption by variable and LSP time dominance."""

import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


def test_fig02_memory_breakdown(benchmark):
    result = benchmark.pedantic(E.fig02_memory_breakdown, iterations=1, rounds=1)
    emit("fig02_memory_breakdown", result.report())
    # LSP must dominate the iteration ("more than 67% of the total time")
    assert result.lsp_fraction > 0.6
    # psi and lam are the big auxiliary variables
    assert result.variable_bytes["psi"] == result.variable_bytes["lam"]
