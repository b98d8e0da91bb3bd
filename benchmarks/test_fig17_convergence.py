"""Figure 17: convergence loss with and without memoization.

Known deviation (recorded here and in the regenerated series,
``benchmarks/results/fig17_convergence.txt``): at this reproduction's scale
the memoized trajectory's true loss oscillates above the exact solver's curve
instead of tracking it tightly; the assertions check the paper's qualitative
claims that hold here — no divergence, no failure to descend — rather than
curve overlap.

The oscillation is chaotic: a ~1e-7 change to the operators moves *which*
iteration spikes and how high (the largest spike has read 21.7x and 37.6x the
starting loss for two gridding windows of equal accuracy), while the
trajectory's median (~2x) and 90th percentile (~6.4x) do not move.  "No
divergence" is therefore stated on those stable statistics, with only an
orders-of-magnitude cap on the single largest spike.
"""

import numpy as np
import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow


def test_fig17_convergence(benchmark):
    result = benchmark.pedantic(
        E.fig17_convergence, kwargs=dict(n_outer=40, tau=0.96, quick=False),
        iterations=1, rounds=1,
    )
    emit("fig17_convergence", result.report())
    v = result.values
    lw = np.asarray(v["loss_without"])
    lm = np.asarray(v["loss_with"])
    # the exact solver converges strongly
    assert lw[-1] < 0.2 * lw[0]
    # the memoized solver descends from its start ...
    assert lm[1:].min() < 0.8 * lm[0]
    # ... and stays bounded throughout: the bulk of the trajectory sits within
    # a small multiple of the starting loss, and no spike approaches the many
    # orders of magnitude by which a diverged run exceeds it
    rel = lm / lm[0]
    assert np.median(rel) < 4.0
    assert np.percentile(rel, 90) < 12.0
    assert rel.max() < 1e3
