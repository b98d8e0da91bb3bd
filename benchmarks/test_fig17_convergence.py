"""Figure 17: convergence loss with and without memoization.

The memoized run uses the ``MemoConfig`` default, ``Fu2D*`` alone: an
adjoint value feeds a gradient step the BB clamp bounds, so its reuse
converges where reusing the forward ``Fu2D`` value (which feeds
``r = F u - d``) does not.  Both curves are the *true* loss of the iterate,
evaluated with the exact operators; the memoized one must stay within 1.5x
the exact curve at every iteration and within 10 % of it at the end, at
each tau the figure is drawn for.
"""

import numpy as np
import pytest

from benchmarks._util import emit
from repro.harness import experiments as E

pytestmark = pytest.mark.slow

TAUS = (0.92, 0.96)


def test_fig17_convergence(benchmark):
    results = benchmark.pedantic(
        lambda: [E.fig17_convergence(n_outer=40, tau=tau, quick=False) for tau in TAUS],
        iterations=1, rounds=1,
    )
    emit("fig17_convergence", "\n\n".join(r.report() for r in results))
    for tau, result in zip(TAUS, results):
        lw = np.asarray(result.values["loss_without"])
        lm = np.asarray(result.values["loss_with"])
        # the exact solver converges strongly
        assert lw[-1] < 0.2 * lw[0]
        ratio = lm / lw
        assert ratio.max() <= 1.5, f"tau={tau}: max ratio {ratio.max():.3f}"
        assert ratio[-1] <= 1.10, f"tau={tau}: final ratio {ratio[-1]:.3f}"
